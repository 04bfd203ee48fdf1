"""Auxiliary-neighbor selection for Chord (paper Section V).

All ids are mapped into the frame of the selecting node (the paper's
"zero-node"): peer ``l`` becomes its clockwise gap ``g_l = (id_l - id_s)
mod 2**b``, and the hop estimate from a pointer at gap ``w`` to a peer at
gap ``g >= w`` is ``bitlength(g - w)`` (eq. 6). Because the gap-to-hops map
is monotone, every peer is served by its *closest preceding* pointer, which
is what makes the interval dynamic program work:

``C_i(m) = min_{1<=j<=m} [ C_{i-1}(j-1) + s(j, m) ]``            (eq. 7)

with ``s(j, m)`` the cost of serving peers ``j+1 .. m`` given a pointer at
peer ``j`` plus the core neighbors (eq. 8).

Solvers:

* :func:`select_chord_dp` — the ``O(n^2 k)`` dynamic program of Section
  V-A: tabulates ``s(j, m)`` by linear sweeps and takes explicit minima.
  Supports QoS delay bounds (Section V-C) by declaring violating
  placements infeasible.
* :func:`select_chord_fast` — Section V-B. Three ingredients:

  1. cumulative frequencies ``F`` and, per anchor, the farthest-peer
     tables ``p_w(r)`` with prefix sums of ``r * (F(p_w(r)) - F(p_w(r-1)))``
     (eq. 9), so any core-free span's cost is O(1) after an O(log n)
     index lookup;
  2. segment splitting at core neighbors with cumulative full-segment
     costs (eq. 10), so any ``s(j, m)`` costs ``O(log n + log b)``;
  3. a divide-and-conquer layer solver in place of the paper's reference
     [9]: ``s`` satisfies the Monge/concavity condition (extending the
     span by one peer costs less under a closer pointer), hence the
     optimal ``j`` is monotone in ``m`` and each of the ``k`` layers
     resolves in ``O(n log n)`` evaluations.

:func:`select_chord_many` solves a block of problems with the fast
algorithm at once: the per-node instances are stacked into flat CSR
arrays and every DP layer is resolved level by level — all
divide-and-conquer tasks at one recursion depth, across the whole block,
in one batch of NumPy gathers (DESIGN.md §15). It returns exactly what
the recursive solver returns, problem for problem, and falls back to it
for small blocks and for id spaces wider than 53 bits.
:func:`select_chord_fast` is ``select_chord_many([problem])[0]``.

:func:`select_chord` dispatches: QoS bounds or tiny instances use the DP,
everything else the fast solver; :func:`select_chord_arrays` is its bulk
form on :func:`chord_instance` arrays, the inputs whole-ring recomputes
build straight from the trackers (DESIGN.md §15).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as _np

from repro.core.cost import _MAX_VECTOR_BITS, _bit_lengths
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace

__all__ = [
    "chord_instance",
    "select_chord",
    "select_chord_arrays",
    "select_chord_dp",
    "select_chord_fast",
    "select_chord_many",
    "solver_blocks",
]

_INF = float("inf")


@dataclass
class _ChordInstance:
    """A selection problem normalized to the selecting node's frame.

    ``gaps[i]``/``weights[i]``/``ids[i]`` describe the i-th peer in
    clockwise order (0-based internally; the paper's indices are 1-based).
    ``core_gaps`` are the clockwise offsets of the core neighbors.
    ``candidate_flags[i]`` marks peers eligible to carry an auxiliary
    pointer. ``bounds[i]`` is the max allowed ``1 + d`` (or ``None``).

    :func:`_normalize` fills the fields with lists; :func:`chord_instance`
    (the array front end) with int64/float64/bool arrays, ``bounds`` left
    ``None`` (no delay bounds) and ``order`` set: gap-sorted position
    ``i`` holds the snapshot's entry ``order[i]``, so the frequencies in
    snapshot order are ``ids``/``weights`` scattered back through it.
    The scalar solvers take lists (:func:`_listed`), the stacked block
    solver either.
    """

    bits: int
    gaps: list[int]
    weights: list[float]
    ids: list[int]
    core_gaps: list[int]
    candidate_flags: list[bool]
    bounds: list[int | None] | None
    source: int | None = None
    order: object = None

    @property
    def n(self) -> int:
        return len(self.gaps)


def chord_instance(space: IdSpace, source: int, peers, weights, core) -> _ChordInstance:
    """The array front end: one node's eq.-1 inputs as a gap-sorted
    instance, without a :class:`SelectionProblem` or a frequency dict.

    ``peers``/``weights`` are the frequency snapshot as int64/float64
    arrays in snapshot order, ``core`` the core neighbor ids (any
    iterable of ints). Every check :class:`SelectionProblem` makes on
    this data is made here, vectorised, raising the same exception
    types (and messages) in the same order: finite non-negative weights
    (the first offender in snapshot order is named), peer ids inside the
    space, source neither among the peers nor among the core neighbors,
    core ids inside the space. The fields then equal those of
    :func:`_normalize` on the problem, as arrays. Ids must be below
    ``2**53`` (:data:`~repro.core.cost._MAX_VECTOR_BITS`)."""
    space.validate(source, "source id")
    bad = ~((weights >= 0) & (weights != _INF))
    if bad.any():
        first = int(bad.argmax())
        raise ConfigurationError(
            f"frequencies[{int(peers[first])}] must be a finite non-negative number, "
            f"got {weights[first].item()!r}"
        )
    size = space.size
    outside = (peers < 0) | (peers >= size)
    if outside.any():
        space.validate(int(peers[outside.argmax()]), "peer id")
    if (peers == source).any():
        raise ConfigurationError("frequencies must not include the source node itself")
    core = _np.fromiter(core, dtype=_np.int64)
    outside = (core < 0) | (core >= size)
    if outside.any():
        space.validate(int(core[outside.argmax()]), "core neighbor id")
    if (core == source).any():
        raise ConfigurationError("core_neighbors must not include the source node itself")
    mask = _np.int64(space.mask)
    gaps = (peers - source) & mask
    order = _np.argsort(gaps, kind="stable")
    gaps = gaps[order]
    core_gaps = _np.sort((core - source) & mask)
    slot = _np.minimum(_np.searchsorted(core_gaps, gaps), max(core_gaps.size - 1, 0))
    flags = core_gaps[slot] != gaps if core_gaps.size else _np.ones(gaps.size, dtype=bool)
    return _ChordInstance(
        bits=space.bits,
        gaps=gaps,
        weights=weights[order],
        ids=peers[order],
        core_gaps=core_gaps,
        candidate_flags=flags,
        bounds=None,
        source=source,
        order=order,
    )


def _listed(inst: _ChordInstance) -> _ChordInstance:
    """``inst`` with list fields, as the scalar solvers take it (converted
    once, with ``tolist``)."""
    if isinstance(inst.gaps, list):
        return inst
    return _ChordInstance(
        bits=inst.bits,
        gaps=inst.gaps.tolist(),
        weights=inst.weights.tolist(),
        ids=inst.ids.tolist(),
        core_gaps=inst.core_gaps.tolist(),
        candidate_flags=inst.candidate_flags.tolist(),
        bounds=[None] * inst.n,
        source=inst.source,
    )


def _normalize(problem: SelectionProblem) -> _ChordInstance:
    space = problem.space
    source = problem.source
    entries: dict[int, float] = dict(problem.frequencies)
    for peer in problem.delay_bounds:
        if peer != source:
            entries.setdefault(peer, 0.0)
    gap_of = {peer: space.gap(source, peer) for peer in entries}
    order = sorted(entries, key=gap_of.__getitem__)
    gaps = [gap_of[peer] for peer in order]
    weights = [float(entries[peer]) for peer in order]
    core = set(problem.core_neighbors)
    candidate_flags = [peer not in core for peer in order]
    bounds = [problem.delay_bounds.get(peer) for peer in order]
    core_gaps = sorted(space.gap(source, neighbor) for neighbor in core)
    return _ChordInstance(
        bits=space.bits,
        gaps=gaps,
        weights=weights,
        ids=order,
        core_gaps=core_gaps,
        candidate_flags=candidate_flags,
        bounds=bounds,
        source=source,
    )


def _serving_distance(inst: _ChordInstance, pointer_gap: int | None, peer_gap: int) -> int:
    """Hops from the best of ``{pointer} ∪ cores`` preceding ``peer_gap``."""
    best = pointer_gap if pointer_gap is not None and pointer_gap <= peer_gap else None
    index = bisect_right(inst.core_gaps, peer_gap)
    if index:
        core = inst.core_gaps[index - 1]
        best = core if best is None else max(best, core)
    if best is None:
        return inst.bits
    return (peer_gap - best).bit_length()


def _vectorizable(inst: _ChordInstance) -> bool:
    return inst.bits <= _MAX_VECTOR_BITS and inst.n > 0


def _base_costs(inst: _ChordInstance) -> list[float]:
    """``C_0(m)``: prefix costs (and QoS feasibility) with cores only.

    ``base[m]`` covers peers ``0 .. m-1`` (m = paper's 1-based index).
    Unconstrained instances use one NumPy sweep (searchsorted over the
    core offsets + cumulative sum); QoS-bounded ones keep the scalar
    loop, which must track per-peer infeasibility.
    """
    if _vectorizable(inst) and not any(bound is not None for bound in inst.bounds):
        return _base_cost_array(
            _np.asarray(inst.gaps, dtype=_np.int64),
            _np.asarray(inst.weights, dtype=_np.float64),
            _np.asarray(inst.core_gaps, dtype=_np.int64),
            inst.bits,
        ).tolist()
    base = [0.0]
    running = 0.0
    for i in range(inst.n):
        if running != _INF:
            distance = _serving_distance(inst, None, inst.gaps[i])
            bound = inst.bounds[i]
            if bound is not None and 1 + distance > bound:
                running = _INF
            else:
                running += inst.weights[i] * distance
        base.append(running)
    return base


def _base_cost_array(gaps, weights, cores, bits: int):
    """Vectorised unconstrained ``C_0``: one searchsorted over the core
    offsets and a cumulative sum."""
    if cores.size == 0:
        distances = _np.full(gaps.size, bits, dtype=_np.int64)
    else:
        index = _np.searchsorted(cores, gaps, side="right")
        preceding = cores[_np.maximum(index - 1, 0)]
        distances = _np.where(index > 0, _bit_lengths(gaps - preceding), bits)
    base = _np.empty(gaps.size + 1, dtype=_np.float64)
    base[0] = 0.0
    _np.cumsum(weights * distances, out=base[1:])
    return base


def _span_cost_table(inst: _ChordInstance, j: int) -> list[float]:
    """All ``s(j+1, m)`` for one 0-based pointer position ``j`` by a linear
    sweep: ``table[m]`` is the cost of peers ``j+1 .. m-1`` (0-based) served
    by the pointer at peer ``j`` plus the cores. Used by the quadratic DP.
    """
    table = [0.0] * (inst.n + 1)
    running = 0.0
    pointer_gap = inst.gaps[j]
    for l in range(j + 1, inst.n):
        if running != _INF:
            distance = _serving_distance(inst, pointer_gap, inst.gaps[l])
            bound = inst.bounds[l]
            if bound is not None and 1 + distance > bound:
                running = _INF
            else:
                running += inst.weights[l] * distance
        table[l + 1] = running
    return table


def _reconstruct(parents: list[list[int]], layers: int, n: int) -> list[int]:
    """Follow the recorded argmins back to the chosen 0-based positions."""
    chosen: list[int] = []
    i, m = layers, n
    while i > 0:
        j = parents[i][m]
        if j == 0:
            i -= 1  # this layer added no pointer
            continue
        chosen.append(j - 1)  # store as 0-based peer index
        m = j - 1
        i -= 1
    return chosen


def _result(inst: _ChordInstance, chosen_positions: list[int], cost_without_plus_one: float, algorithm: str) -> SelectionResult:
    ids, weights = inst.ids, inst.weights
    if not isinstance(ids, list):
        # Python ints and floats: the sum must be the list sum, bit for bit.
        ids, weights = ids.tolist(), weights.tolist()
    total_weight = sum(weights)
    auxiliary = frozenset(ids[pos] for pos in chosen_positions)
    return SelectionResult(auxiliary, cost_without_plus_one + total_weight, algorithm)


def select_chord_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n^2 k)`` dynamic program (Section V-A).

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when no placement
    of ``k`` pointers satisfies them.
    """
    inst = _normalize(problem)
    return _result(inst, *_solve_dp(inst, problem.k), "chord-dp")


def _solve_dp(inst: _ChordInstance, k: int) -> tuple[list[int], float]:
    """The quadratic DP on a list instance: (chosen 0-based positions,
    ``C_k(n)``)."""
    n = inst.n
    span_tables = [_span_cost_table(inst, j) for j in range(n)]
    current = _base_costs(inst)
    k_eff = min(k, sum(inst.candidate_flags))
    parents: list[list[int]] = [[0] * (n + 1)]
    for _layer in range(k_eff):
        previous = current
        current = list(previous)  # option: do not place this pointer
        parent_row = [0] * (n + 1)
        for m in range(1, n + 1):
            best = current[m]
            best_j = 0
            for j in range(1, m + 1):
                if not inst.candidate_flags[j - 1]:
                    continue
                value = previous[j - 1] + span_tables[j - 1][m]
                if value < best:
                    best = value
                    best_j = j
            current[m] = best
            parent_row[m] = best_j
        parents.append(parent_row)
    if current[n] == _INF:
        raise InfeasibleConstraintError(
            f"QoS delay bounds cannot be met with k={k} auxiliary pointers"
        )
    return _reconstruct(parents, k_eff, n), current[n]


def _anchor_tables(gaps, freq_prefix, anchors, bits: int):
    """The eq.-9 tables of every anchor at once: ``reach[a, r]`` (``r``
    = 0 .. bits) counts the peers with gap at most ``anchors[a] + 2**r -
    1`` and ``hops[a, r]`` is the prefix sum of ``r' * (F(p(r')) -
    F(p(r'-1)))`` over ``r' <= r``. One searchsorted resolves all anchors
    × radii, a row-wise cumulative sum the prefixes."""
    radii = _np.arange(1, bits + 1, dtype=_np.int64)
    limits = anchors[:, None] + ((_np.int64(1) << radii) - 1)[None, :]
    outer = _np.searchsorted(gaps, limits.ravel(), side="right")
    reach = _np.concatenate(
        [
            _np.searchsorted(gaps, anchors, side="right")[:, None],
            outer.reshape(len(anchors), bits),
        ],
        axis=1,
    )
    shells = freq_prefix[reach[:, 1:]] - freq_prefix[reach[:, :-1]]
    hops = _np.zeros((len(anchors), bits + 1), dtype=_np.float64)
    _np.cumsum(radii * shells, axis=1, out=hops[:, 1:])
    return reach, hops


class _SpanOracle:
    """Answers ``s(j, m)`` queries in ``O(log n + log b)`` (Section V-B).

    For every anchor gap ``w`` (each peer position and each core neighbor)
    it precomputes, over hop distances ``r = 1 .. b``:

    * ``reach_index[w][r]`` — the paper's ``p_w(r)``: how many peers have a
      gap at most ``w + 2**r - 1`` (prefix count into the sorted gaps);
    * ``hop_prefix[w][r]`` — the prefix sum
      ``sum_{r'<=r} r' * (F(p_w(r')) - F(p_w(r'-1)))`` of eq. 9.

    Spans containing core neighbors split at them (eq. 10); the costs of
    complete core-to-core segments are pre-accumulated so a query touches
    at most two partial segments.
    """

    def __init__(self, inst: _ChordInstance) -> None:
        self.inst = inst
        self.gaps = inst.gaps
        bits = inst.bits
        # Cumulative peer frequencies: F[c] = total weight of first c peers.
        self.freq_prefix = [0.0]
        for weight in inst.weights:
            self.freq_prefix.append(self.freq_prefix[-1] + weight)
        # Anchor tables for every peer gap and every core gap. The
        # vectorized build resolves all anchors × all radii with one
        # searchsorted and a row-wise cumulative sum (eq. 9 batched);
        # the scalar loop below it is the reference/fallback.
        self._reach: dict[int, list[int]] = {}
        self._hops: dict[int, list[float]] = {}
        anchors = sorted(set(inst.gaps) | set(inst.core_gaps))
        if _vectorizable(inst) and anchors:
            reach, hops = _anchor_tables(
                _np.asarray(self.gaps, dtype=_np.int64),
                _np.asarray(self.freq_prefix, dtype=_np.float64),
                _np.asarray(anchors, dtype=_np.int64),
                bits,
            )
            for row, gap in enumerate(anchors):
                self._reach[gap] = reach[row].tolist()
                self._hops[gap] = hops[row].tolist()
        else:
            for gap in anchors:
                reach = [bisect_right(self.gaps, gap)]
                hops = [0.0]
                for r in range(1, bits + 1):
                    limit = gap + (1 << r) - 1
                    index = bisect_right(self.gaps, limit)
                    shell = self.freq_prefix[index] - self.freq_prefix[reach[-1]]
                    hops.append(hops[-1] + r * shell)
                    reach.append(index)
                self._reach[gap] = reach
                self._hops[gap] = hops
        # Cumulative costs of complete core→core segments (eq. 10).
        cores = inst.core_gaps
        self.segment_prefix = [0.0]
        for t in range(len(cores) - 1):
            cost = self._corefree_span(cores[t], cores[t + 1] - 1)
            self.segment_prefix.append(self.segment_prefix[-1] + cost)

    def _corefree_span(self, anchor: int, limit: int) -> float:
        """Cost of peers with gap in ``(anchor, limit]`` all served by a
        pointer at ``anchor`` (no core neighbor strictly inside) — eq. 9."""
        if limit <= anchor:
            return 0.0
        span = limit - anchor
        d_max = span.bit_length()
        reach = self._reach[anchor]
        hops = self._hops[anchor]
        inner = hops[d_max - 1]
        upper_index = bisect_right(self.gaps, limit)
        outer = d_max * (self.freq_prefix[upper_index] - self.freq_prefix[reach[d_max - 1]])
        return inner + outer

    def span_cost(self, j: int, m: int) -> float:
        """``s(j, m)`` with 1-based indices per the paper: cost of peers
        ``j+1 .. m`` given a pointer at peer ``j`` plus the cores."""
        if m <= j:
            return 0.0
        anchor = self.gaps[j - 1]
        limit = self.gaps[m - 1]
        cores = self.inst.core_gaps
        lo = bisect_right(cores, anchor)
        hi = bisect_right(cores, limit)
        if lo == hi:  # no core strictly inside the span
            return self._corefree_span(anchor, limit)
        head = self._corefree_span(anchor, cores[lo] - 1)
        middle = self.segment_prefix[hi - 1] - self.segment_prefix[lo]
        tail = self._corefree_span(cores[hi - 1], limit)
        return head + middle + tail


def _solve_layer_dc(
    oracle: _SpanOracle,
    previous: list[float],
    candidates: list[int],
    current: list[float],
    parent_row: list[int],
) -> None:
    """One DP layer by divide and conquer over the Monge cost matrix.

    ``candidates`` holds the admissible 1-based pointer positions ``j``.
    ``current`` arrives pre-filled with the "place no pointer" option
    (``previous`` copied) and is lowered in place.
    """
    n = len(previous) - 1

    def weight(candidate_index: int, m: int) -> float:
        j = candidates[candidate_index]
        return previous[j - 1] + oracle.span_cost(j, m)

    def solve(m_lo: int, m_hi: int, c_lo: int, c_hi: int) -> None:
        if m_lo > m_hi or c_lo > c_hi:
            return
        m_mid = (m_lo + m_hi) // 2
        # Admissible candidates for m_mid: pointer position j <= m_mid.
        upper = bisect_right(candidates, m_mid) - 1
        best = _INF
        best_c = -1
        for c in range(c_lo, min(c_hi, upper) + 1):
            value = weight(c, m_mid)
            if value < best:
                best = value
                best_c = c
        if best_c < 0:
            # No candidate fits at m_mid, hence none for smaller m either.
            solve(m_mid + 1, m_hi, c_lo, c_hi)
            return
        if best < current[m_mid]:
            current[m_mid] = best
            parent_row[m_mid] = candidates[best_c]
        # Monge property of s(j, m): the (leftmost) optimal candidate index
        # is non-decreasing in m, so the halves need only straddle it.
        solve(m_lo, m_mid - 1, c_lo, best_c)
        solve(m_mid + 1, m_hi, best_c, c_hi)

    if candidates:
        solve(1, n, 0, len(candidates) - 1)


def _solve_recursive(inst: _ChordInstance, k: int) -> tuple[list[int], float]:
    """The fast algorithm on one instance with the recursive layer solver:
    (chosen 0-based positions, ``C_k(n)``)."""
    n = inst.n
    oracle = _SpanOracle(inst)
    current = _base_costs(inst)
    candidates = [index + 1 for index in range(n) if inst.candidate_flags[index]]
    k_eff = min(k, len(candidates))
    parents: list[list[int]] = [[0] * (n + 1)]
    for _layer in range(k_eff):
        previous = current
        current = list(previous)
        parent_row = [0] * (n + 1)
        _solve_layer_dc(oracle, previous, candidates, current, parent_row)
        parents.append(parent_row)
    return _reconstruct(parents, k_eff, n), current[n]


# ----------------------------------------------------------------------
# Level-synchronous block solver
# ----------------------------------------------------------------------

#: Budget of anchor-table cells (anchor rows × (bits + 1), before the
#: compression in :class:`_StackedBlock`) per block of
#: :func:`solver_blocks`: about 29 instances of the paper-scale cell
#: (256 tracked peers + ~12 cores, 32-bit ids), whose compressed tables
#: take ~1.2 MiB. Larger blocks amortise the per-level NumPy calls over
#: more instances but stopped paying at 2**19 (DESIGN.md §15).
BLOCK_CELLS = 1 << 18

#: Stacked peer count below which :func:`select_chord_many` keeps the
#: recursive solver: a level of the stacked solver costs ~60 NumPy calls
#: whatever its size, which a single 32-bit instance only repays from
#: about 96 peers on (DESIGN.md §15).
_STACK_MIN_PEERS = 96


class _StackedBlock:
    """A block of instances stacked into flat CSR arrays (int32 indices).

    Instance ``i`` owns one contiguous slice of each layout:

    * *positions*, ``n_i + 1`` slots: slot ``m`` is the paper's 1-based
      peer ``m`` (slot 0 stands for "no peer"). ``gap``, ``rank`` (the
      global index of the first core after the peer, i.e.
      ``bisect_right(cores, gap)``), the peer's anchor row as ``start``
      and ``skip`` (below), ``freq`` (``F``), ``base`` (``C_0``) and
      ``upper`` (global index of the last candidate ``j <= m``);
    * *candidates*: ``cand_pos``, the positions of the peers eligible for
      a pointer;
    * *cores*: ``core_gap``, the core's anchor row (``core_start``,
      ``core_skip``), ``core_upper`` (position of the last peer before
      the core) and ``segment``, the eq.-10 prefix costs of complete
      core-to-core segments;
    * *cells*: the anchor rows of eq. 9, ``reach`` (as a position) and
      ``hops``. A row keeps radius 0 and the radii from ``skip``, its
      first radius that reaches a peer radius 0 does not; the radii in
      between repeat radius 0 exactly, so radius ``r`` is cell ``start +
      max(r + 1 - skip, 0)``. With 32-bit ids and a few hundred peers
      that drops about two thirds of the cells.

    Every index a ``s(j, m)`` evaluation needs is then one gather; the
    searchsorted calls of :class:`_SpanOracle` happen once, at build.
    """

    def __init__(self, insts: list[_ChordInstance], ks: list[int]) -> None:
        # Built for the whole block at once; only the anchor searchsorted
        # runs per instance (searching one instance's few hundred gaps is
        # cheaper than one search over the whole block's). Every value is
        # computed with the same operations, in the same order, as the
        # per-instance _SpanOracle tables: prefix sums run along rows of
        # zero-padded (instance x peer) matrices, and a cumulative sum
        # along a row is the sequential sum of that row.
        self.insts = insts
        count = len(insts)
        n = _np.fromiter((inst.n for inst in insts), dtype=_np.int64, count=count)
        c = _np.fromiter((len(inst.core_gaps) for inst in insts), dtype=_np.int64, count=count)
        bits = _np.fromiter((inst.bits for inst in insts), dtype=_np.int64, count=count)
        self.pos_base = _offsets(n + 1)
        peer_base = _offsets(n)
        core_base = _offsets(c)
        owner = _np.repeat(_np.arange(count), n)
        core_owner = _np.repeat(_np.arange(count), c)
        gaps = _concat([inst.gaps for inst in insts], _np.int64)
        weights = _concat([inst.weights for inst in insts], _np.float64)
        cores = _concat([inst.core_gaps for inst in insts], _np.int64)
        flags = _concat([inst.candidate_flags for inst in insts], bool)
        local = _np.arange(gaps.size) - peer_base[owner]
        slots = self.pos_base[owner] + 1 + local
        positions = int(self.pos_base[-1])
        self.freq = _row_prefix(weights, owner, local + 1, count, int(n.max(initial=0)) + 1)[
            _np.repeat(_np.arange(count), n + 1),
            _np.arange(positions) - _np.repeat(self.pos_base[:-1], n + 1),
        ]
        # Peers and cores merged by gap within each instance, cores first
        # on ties: an instance's gaps and core gaps are ascending, so the
        # peers (and the cores) keep their order, and the merge gives each
        # peer its rank among the cores, each core the peers before it,
        # and both their row among the distinct gaps, the anchors.
        values = _np.concatenate((gaps, cores))
        whose = _np.concatenate((owner, core_owner))
        peer = _np.concatenate((_np.ones(gaps.size, dtype=bool), _np.zeros(cores.size, dtype=bool)))
        merged = _np.lexsort((peer, values, whose))
        values, whose, peer = values[merged], whose[merged], peer[merged]
        fresh = _np.ones(merged.size, dtype=bool)
        fresh[1:] = (values[1:] != values[:-1]) | (whose[1:] != whose[:-1])
        row = _np.cumsum(fresh) - 1
        anchors, anchor_owner = values[fresh], whose[fresh]
        rank = _np.cumsum(~peer)[peer]
        peers_before = (_np.cumsum(peer) - peer)[~peer]
        # The eq.-9 anchor rows, compressed as they are built: radius r
        # reaches gap anchor + 2**r - 1, so the first radius that reaches
        # a peer radius 0 does not is the bit length of the distance to
        # the anchor's next peer (none: the row never grows). A row keeps
        # radius 0 and the radii from there up to the widest id space.
        ends = _np.append(_np.flatnonzero(fresh)[1:], fresh.size) - 1
        upto = _np.cumsum(peer)[ends]
        follows = upto < peer_base[anchor_owner + 1]
        width = int(bits.max(initial=0)) + 1
        skip = _np.where(
            follows, _bit_lengths(gaps[_np.minimum(upto, gaps.size - 1)] - anchors), width
        )
        sizes = width + 1 - skip
        start = _offsets(sizes)
        cell_row = _np.repeat(_np.arange(anchors.size), sizes)
        radius = _np.arange(int(start[-1])) - start[:-1][cell_row] + skip[cell_row] - 1
        radius[start[:-1]] = 0
        limits = anchors[cell_row] + ((_np.int64(1) << radius) - 1)
        self.reach = reach = _np.empty(limits.size, dtype=_np.int32)
        cell_base = start[_offsets(_np.bincount(anchor_owner, minlength=count))].tolist()
        peer_bounds = peer_base.tolist()
        slot_base = self.pos_base.tolist()
        for i in range(count):
            found = _np.searchsorted(
                gaps[peer_bounds[i] : peer_bounds[i + 1]],
                limits[cell_base[i] : cell_base[i + 1]],
                side="right",
            )
            reach[cell_base[i] : cell_base[i + 1]] = found + slot_base[i]
        # hops: the prefix sums of r * (F(p(r)) - F(p(r - 1))) along each
        # row, radius 0 to the widest, the dropped radii adding 0.0.
        grown = _np.flatnonzero(radius)
        shells = self.freq[reach[grown]] - self.freq[reach[grown - 1]]
        cells = cell_row * width + radius
        matrix = _np.zeros(anchors.size * width, dtype=_np.float64)
        matrix[cells[grown]] = radius[grown] * shells
        self.hops = _np.cumsum(matrix.reshape(anchors.size, width), axis=1).ravel()[cells]
        del matrix, limits, shells, cells
        start = start[:-1]
        # Position layout.
        self.gap = _np.zeros(positions, dtype=_np.int64)
        self.rank = _np.zeros(positions, dtype=_np.int32)
        self.start = _np.zeros(positions, dtype=_np.int32)
        self.skip = _np.zeros(positions, dtype=_np.int32)
        self.upper = _np.zeros(positions, dtype=_np.int32)
        peer_row = row[peer]
        self.gap[slots] = gaps
        self.rank[slots] = rank
        self.start[slots] = start[peer_row]
        self.skip[slots] = skip[peer_row]
        # C_0: each peer served by the last core at or before it (eq. 8).
        if cores.size:
            preceding = cores[_np.maximum(rank - 1, 0)]
            distances = _np.where(
                rank > core_base[owner], _bit_lengths(gaps - preceding), bits[owner]
            )
        else:
            distances = bits[owner]
        self.base = _np.zeros(positions, dtype=_np.float64)
        self.base[slots] = _row_prefix(
            weights * distances, owner, local, count, int(n.max(initial=0))
        )[owner, local]
        # Candidates.
        taken = _np.cumsum(flags)
        per_instance = _np.bincount(owner[flags], minlength=count)
        cand_bounds = _offsets(per_instance)
        self.upper[self.pos_base[:-1]] = cand_bounds[:-1] - 1
        self.upper[slots] = taken - 1
        self.cand_pos = slots[flags].astype(_np.int32)
        self.cand_base = cand_bounds[:-1]
        self.k_eff = _np.minimum(_np.asarray(ks, dtype=_np.int64), per_instance).tolist()
        # Cores.
        core_row = row[~peer]
        self.core_gap = cores
        self.core_start = start[core_row].astype(_np.int32)
        self.core_skip = skip[core_row].astype(_np.int32)
        self.core_upper = (
            peers_before - peer_base[core_owner] + self.pos_base[core_owner]
        ).astype(_np.int32)
        self.segment = _np.zeros(cores.size, dtype=_np.float64)
        # Complete core-to-core segment costs (eq. 10): core t to t + 1 of
        # the same instance, accumulated per instance in order.
        if cores.size > 1:
            first = _np.arange(cores.size - 1)
            t = first[core_owner[first] == core_owner[first + 1]]
            costs = _np.zeros(cores.size, dtype=_np.float64)
            costs[t + 1] = self._span(
                self.core_start[t],
                self.core_skip[t],
                self.core_gap[t],
                self.core_gap[t + 1] - 1,
                self.core_upper[t + 1],
            )
            core_local = _np.arange(cores.size) - core_base[core_owner]
            self.segment = _row_prefix(costs, core_owner, core_local, count, int(c.max()))[
                core_owner, core_local
            ]

    def _span(self, start, skip, anchor, limit, upper):
        """Vectorised :meth:`_SpanOracle._corefree_span`: the cost of the
        peers with gap in ``(anchor, limit]`` served from the anchor row
        at ``start``/``skip``, where ``upper`` is the position of the last
        of them."""
        diff = limit - anchor
        d = _bit_lengths(diff)
        cell = start + _np.maximum(d - skip, 0)
        outer = d * (self.freq[upper] - self.freq[self.reach[cell]])
        return _np.where(diff > 0, self.hops[cell] + outer, 0.0)

    def _pair_cost(self, jpos, mpos):
        """:meth:`_SpanOracle.span_cost` for pointer peers at positions
        ``jpos`` and last served peers at ``mpos`` (``jpos <= mpos``),
        with the same operations in the same order."""
        anchor = self.gap[jpos]
        limit = self.gap[mpos]
        lo = self.rank[jpos]
        hi = self.rank[mpos]
        start = self.start[jpos]
        skip = self.skip[jpos]
        split = _np.flatnonzero(lo != hi)
        if split.size == 0:
            return self._span(start, skip, anchor, limit, mpos)
        lo = lo[split]
        hi = hi[split] - 1
        head_limit = limit.copy()
        head_limit[split] = self.core_gap[lo] - 1
        head_upper = mpos.copy()
        head_upper[split] = self.core_upper[lo]
        cost = self._span(start, skip, anchor, head_limit, head_upper)
        middle = self.segment[hi] - self.segment[lo]
        tail = self._span(
            self.core_start[hi], self.core_skip[hi], self.core_gap[hi], limit[split], mpos[split]
        )
        cost[split] = (cost[split] + middle) + tail
        return cost

    def solve(self) -> list[tuple[list[int], float]]:
        """Every instance's (chosen 0-based positions, ``C_k(n)``)."""
        current = self.base
        parents = []
        n = _np.asarray([inst.n for inst in self.insts], dtype=_np.int64)
        k_eff = _np.asarray(self.k_eff, dtype=_np.int64)
        counts = _np.diff(_np.append(self.cand_base, self.cand_pos.size))
        for layer in range(int(k_eff.max(initial=0))):
            previous = current
            current = previous.copy()
            parent = _np.zeros(current.size, dtype=_np.int32)
            active = _np.flatnonzero(k_eff > layer)
            self._solve_layer(
                previous,
                current,
                parent,
                self.pos_base[active] + 1,
                self.pos_base[active] + n[active],
                self.cand_base[active],
                self.cand_base[active] + counts[active] - 1,
            )
            parents.append(parent)
        results = []
        for i, inst in enumerate(self.insts):
            p0 = int(self.pos_base[i])
            chosen = []
            layer, m = self.k_eff[i], inst.n
            while layer > 0:
                j = int(parents[layer - 1][p0 + m])
                if j:
                    chosen.append(j - p0 - 1)
                    m = j - p0 - 1
                layer -= 1
            results.append((chosen, float(current[p0 + inst.n])))
        return results

    def _solve_layer(self, previous, current, parent, m_lo, m_hi, c_lo, c_hi) -> None:
        """One DP layer of every instance: :func:`_solve_layer_dc`'s task
        tree, one recursion depth at a time. A task is ``(m_lo, m_hi,
        c_lo, c_hi)`` in global positions and candidate indices; tasks are
        only created with ``m_lo <= m_hi`` and ``c_lo <= c_hi``."""
        while m_lo.size:
            mid = (m_lo + m_hi) >> 1
            # Admissible candidates of each task: c_lo .. min(c_hi, last j <= mid).
            count = _np.minimum(c_hi, self.upper[mid]) - c_lo + 1
            tasks = _np.flatnonzero(count > 0)
            best = c_lo.copy()
            found = _np.zeros(mid.size, dtype=bool)
            if tasks.size:
                count = count[tasks]
                ends = _np.cumsum(count)
                starts = ends - count
                order = _np.arange(int(ends[-1]))
                cidx = order + _np.repeat(c_lo[tasks] - starts, count)
                jpos = self.cand_pos[cidx]
                mpos = _np.repeat(mid[tasks], count)
                value = previous[jpos - 1] + self._pair_cost(jpos, mpos)
                # Leftmost strict minimum, as the recursive scan's ``<``
                # finds it; a task whose values are all inf finds none.
                low = _np.fmin.reduceat(value, starts)
                first = _np.minimum.reduceat(
                    _np.where(value == _np.repeat(low, count), order, order.size), starts
                )
                hit = low < _INF
                tasks, first = tasks[hit], first[hit]
                best[tasks] = cidx[first]
                found[tasks] = True
                target = mid[tasks]
                value = value[first]
                lower = value < current[target]
                target = target[lower]
                current[target] = value[lower]
                parent[target] = jpos[first[lower]]
            # Children: left half (m_lo .. mid-1, c_lo .. best) when a best
            # exists; right half (mid+1 .. m_hi, best .. c_hi), where best
            # stays c_lo when no candidate fits at mid.
            left = found & (mid > m_lo)
            right = mid < m_hi
            m_lo, m_hi, c_lo, c_hi = (
                _np.concatenate((m_lo[left], mid[right] + 1)),
                _np.concatenate((mid[left] - 1, m_hi[right])),
                _np.concatenate((c_lo[left], best[right])),
                _np.concatenate((best[left], c_hi[right])),
            )


def _offsets(sizes):
    """Exclusive prefix sums with the total appended: CSR offsets."""
    offsets = _np.zeros(len(sizes) + 1, dtype=_np.int64)
    _np.cumsum(sizes, out=offsets[1:])
    return offsets


def _concat(parts, dtype):
    """One flat array of ``parts`` (arrays or lists)."""
    if not parts:
        return _np.zeros(0, dtype=dtype)
    return _np.concatenate([_np.asarray(part, dtype=dtype) for part in parts])


def _row_prefix(values, rows, columns, height: int, width: int):
    """Cumulative sums of ``values`` along the rows of a zero-padded
    ``height x width`` matrix (``values[i]`` at ``rows[i], columns[i]``):
    each row's prefix sums are those of its own entries alone, added in
    column order."""
    matrix = _np.zeros((height, width), dtype=_np.float64)
    matrix[rows, columns] = values
    return _np.cumsum(matrix, axis=1)


def select_chord_many(problems: Iterable[SelectionProblem]) -> list[SelectionResult]:
    """The fast algorithm of Section V-B on a block of problems at once.

    Result for result identical to solving each problem alone with the
    recursive layer solver — same auxiliary set, bit-identical cost, label
    ``"chord-fast"`` — and independent of which other problems share the
    block. Blocks stacking fewer than ``_STACK_MIN_PEERS`` peers, and ids
    wider than 53 bits, use the recursive solver.

    Does not accept QoS bounds — use :func:`select_chord_dp` for those.
    """
    problems = list(problems)
    if any(problem.delay_bounds for problem in problems):
        raise ConfigurationError("fast solver does not support delay bounds; use select_chord_dp")
    insts = [_normalize(problem) for problem in problems]
    solved = _solve_fast(insts, [problem.k for problem in problems])
    return [_result(inst, *pair, "chord-fast") for inst, pair in zip(insts, solved)]


def _solve_fast(insts: list[_ChordInstance], ks: list[int]) -> list[tuple[list[int], float]]:
    """The fast algorithm on each instance: the vectorizable ones stacked
    into one :class:`_StackedBlock` when together they hold at least
    ``_STACK_MIN_PEERS`` peers, the rest by the recursive solver."""
    stacked = [index for index, inst in enumerate(insts) if _vectorizable(inst)]
    solved: dict[int, tuple[list[int], float]] = {}
    if stacked and sum(insts[index].n for index in stacked) >= _STACK_MIN_PEERS:
        block = _StackedBlock([insts[index] for index in stacked], [ks[index] for index in stacked])
        solved = dict(zip(stacked, block.solve()))
    return [
        solved[index] if index in solved else _solve_recursive(_listed(inst), ks[index])
        for index, inst in enumerate(insts)
    ]


def select_chord_fast(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the fast algorithm of Section V-B
    (``O(n (b + k log b) log n)``-flavoured; see module docstring).

    Does not accept QoS bounds — use :func:`select_chord_dp` for those.
    """
    return select_chord_many([problem])[0]


def solver_blocks(insts: Iterable[_ChordInstance]) -> Iterator[list[_ChordInstance]]:
    """Group :func:`chord_instance` instances lazily, in order, into blocks
    of at most :data:`BLOCK_CELLS` stacked anchor cells (a single larger
    instance is a block of its own), so a caller never holds more than one
    block at a time."""
    block: list[_ChordInstance] = []
    cells = 0
    for inst in insts:
        size = (inst.n + len(inst.core_gaps)) * (inst.bits + 1)
        if block and cells + size > BLOCK_CELLS:
            yield block
            block, cells = [], 0
        block.append(inst)
        cells += size
    if block:
        yield block


#: Peer count up to which :func:`select_chord` uses the quadratic DP.
_DP_MAX_PEERS = 32


def _prefers_dp(problem: SelectionProblem) -> bool:
    return bool(problem.delay_bounds) or len(problem.frequencies) <= _DP_MAX_PEERS


def select_chord(problem: SelectionProblem) -> SelectionResult:
    """Solve a Chord selection problem with the appropriate algorithm:
    the quadratic DP for QoS-constrained or tiny instances, the fast
    divide-and-conquer solver otherwise."""
    if _prefers_dp(problem):
        return select_chord_dp(problem)
    return select_chord_fast(problem)


def select_chord_arrays(insts: list[_ChordInstance], k: int) -> list[SelectionResult]:
    """:func:`select_chord` on every node of a block of
    :func:`chord_instance` instances, all at budget ``k``: instances of at
    most 32 peers go to the DP (on lists), as :func:`select_chord` routes
    them, the others to the fast solver, stacked together. Result for
    result identical to :func:`select_chord` on each node's
    :class:`SelectionProblem`."""
    fast = [inst for inst in insts if inst.n > _DP_MAX_PEERS]
    solved = iter(_solve_fast(fast, [k] * len(fast)))
    results = []
    for inst in insts:
        if inst.n <= _DP_MAX_PEERS:
            inst = _listed(inst)
            results.append(_result(inst, *_solve_dp(inst, k), "chord-dp"))
        else:
            results.append(_result(inst, *next(solved), "chord-fast"))
    return results
