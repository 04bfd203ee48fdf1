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
everything else the fast solver; :func:`select_chord_block` is its bulk
form.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.cost import _MAX_VECTOR_BITS, _bit_lengths
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

__all__ = [
    "select_chord",
    "select_chord_block",
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
    """

    bits: int
    gaps: list[int]
    weights: list[float]
    ids: list[int]
    core_gaps: list[int]
    candidate_flags: list[bool]
    bounds: list[int | None]

    @property
    def n(self) -> int:
        return len(self.gaps)


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
    return _np is not None and inst.bits <= _MAX_VECTOR_BITS and inst.n > 0


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


def _result(problem: SelectionProblem, inst: _ChordInstance, chosen_positions: list[int], cost_without_plus_one: float, algorithm: str) -> SelectionResult:
    total_weight = sum(inst.weights)
    auxiliary = frozenset(inst.ids[pos] for pos in chosen_positions)
    return SelectionResult(auxiliary, cost_without_plus_one + total_weight, algorithm)


def select_chord_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n^2 k)`` dynamic program (Section V-A).

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when no placement
    of ``k`` pointers satisfies them.
    """
    inst = _normalize(problem)
    n = inst.n
    span_tables = [_span_cost_table(inst, j) for j in range(n)]
    current = _base_costs(inst)
    k_eff = min(problem.k, sum(inst.candidate_flags))
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
            f"QoS delay bounds cannot be met with k={problem.k} auxiliary pointers"
        )
    chosen = _reconstruct(parents, k_eff, n)
    return _result(problem, inst, chosen, current[n], "chord-dp")


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
        self.insts = insts
        self.pos_base = _offsets([inst.n + 1 for inst in insts])
        core_base = _offsets([len(inst.core_gaps) for inst in insts])
        positions = int(self.pos_base[-1])
        cores_total = int(core_base[-1])
        self.gap = _np.zeros(positions, dtype=_np.int64)
        self.rank = _np.zeros(positions, dtype=_np.int32)
        self.start = _np.zeros(positions, dtype=_np.int32)
        self.skip = _np.zeros(positions, dtype=_np.int32)
        self.freq = _np.zeros(positions, dtype=_np.float64)
        self.base = _np.zeros(positions, dtype=_np.float64)
        self.upper = _np.zeros(positions, dtype=_np.int32)
        self.core_gap = _np.zeros(cores_total, dtype=_np.int64)
        self.core_start = _np.zeros(cores_total, dtype=_np.int32)
        self.core_skip = _np.zeros(cores_total, dtype=_np.int32)
        self.core_upper = _np.zeros(cores_total, dtype=_np.int32)
        self.segment = _np.zeros(cores_total, dtype=_np.float64)
        self.cand_base = _np.zeros(len(insts), dtype=_np.int64)
        self.k_eff = []
        reach_parts, hops_parts, cand_parts = [], [], []
        cells = candidates = 0
        for i, inst in enumerate(insts):
            p0, q0 = int(self.pos_base[i]), int(core_base[i])
            p1, q1 = p0 + inst.n + 1, q0 + len(inst.core_gaps)
            gaps = _np.asarray(inst.gaps, dtype=_np.int64)
            cores = _np.asarray(inst.core_gaps, dtype=_np.int64)
            weights = _np.asarray(inst.weights, dtype=_np.float64)
            anchors = _np.union1d(gaps, cores)
            # Same additions, in the same order, as _SpanOracle's Python
            # prefix loop (0.0 + w0, then + w1, ...).
            freq = _np.cumsum(_np.concatenate(([0.0], weights)))
            reach, hops = _anchor_tables(gaps, freq, anchors, inst.bits)
            start, skip, reach, hops = _drop_repeated_radii(reach, hops)
            start += cells
            cells += reach.size
            reach_parts.append((reach + p0).astype(_np.int32))
            hops_parts.append(hops)
            peer_row = _np.searchsorted(anchors, gaps)
            core_row = _np.searchsorted(anchors, cores)
            self.gap[p0 + 1 : p1] = gaps
            self.rank[p0 + 1 : p1] = _np.searchsorted(cores, gaps, side="right") + q0
            self.start[p0 + 1 : p1] = start[peer_row]
            self.skip[p0 + 1 : p1] = skip[peer_row]
            self.freq[p0:p1] = freq
            self.base[p0:p1] = _base_cost_array(gaps, weights, cores, inst.bits)
            flags = _np.asarray(inst.candidate_flags, dtype=_np.int64)
            self.upper[p0] = candidates - 1
            self.upper[p0 + 1 : p1] = _np.cumsum(flags) + (candidates - 1)
            local = _np.flatnonzero(flags)
            cand_parts.append(local + (p0 + 1))
            self.cand_base[i] = candidates
            candidates += local.size
            self.k_eff.append(min(ks[i], local.size))
            self.core_gap[q0:q1] = cores
            self.core_start[q0:q1] = start[core_row]
            self.core_skip[q0:q1] = skip[core_row]
            self.core_upper[q0:q1] = _np.searchsorted(gaps, cores - 1, side="right") + p0
        self.reach = _np.concatenate(reach_parts) if reach_parts else _np.zeros(0, _np.int32)
        self.hops = _np.concatenate(hops_parts) if hops_parts else _np.zeros(0)
        self.cand_pos = (
            _np.concatenate(cand_parts).astype(_np.int32) if cand_parts else _np.zeros(0, _np.int32)
        )
        del reach_parts, hops_parts, cand_parts
        # Complete core-to-core segment costs (eq. 10): core t to t + 1 of
        # the same instance, accumulated per instance in order.
        if cores_total > 1:
            first = _np.arange(cores_total - 1)
            same = _np.searchsorted(core_base, first, side="right") == _np.searchsorted(
                core_base, first + 1, side="right"
            )
            t = first[same]
            costs = _np.zeros(cores_total, dtype=_np.float64)
            costs[t + 1] = self._span(
                self.core_start[t],
                self.core_skip[t],
                self.core_gap[t],
                self.core_gap[t + 1] - 1,
                self.core_upper[t + 1],
            )
            for i in range(len(insts)):
                q0, q1 = int(core_base[i]), int(core_base[i + 1])
                if q1 > q0:
                    _np.cumsum(costs[q0:q1], out=self.segment[q0:q1])

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


def _drop_repeated_radii(reach, hops):
    """Compress anchor tables row by row (see :class:`_StackedBlock`):
    ``(start, skip, reach cells, hops cells)`` with row starts relative to
    the first cell."""
    width = reach.shape[1]
    grows = reach[:, 1:] > reach[:, :1]
    skip = _np.where(grows.any(axis=1), grows.argmax(axis=1) + 1, width)
    keep = _np.arange(width)[None, :] >= skip[:, None]
    keep[:, 0] = True
    sizes = keep.sum(axis=1)
    start = _np.cumsum(sizes) - sizes
    return start, skip, reach[keep], hops[keep]


def _offsets(sizes: list[int]):
    """Exclusive prefix sums with the total appended: CSR offsets."""
    offsets = _np.zeros(len(sizes) + 1, dtype=_np.int64)
    _np.cumsum(sizes, out=offsets[1:])
    return offsets


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
    stacked = [index for index, inst in enumerate(insts) if _vectorizable(inst)]
    solved: dict[int, tuple[list[int], float]] = {}
    if sum(insts[index].n for index in stacked) >= _STACK_MIN_PEERS:
        block = _StackedBlock(
            [insts[index] for index in stacked], [problems[index].k for index in stacked]
        )
        solved = dict(zip(stacked, block.solve()))
    results = []
    for index, (problem, inst) in enumerate(zip(problems, insts)):
        chosen, cost = solved[index] if index in solved else _solve_recursive(inst, problem.k)
        results.append(_result(problem, inst, chosen, cost, "chord-fast"))
    return results


def select_chord_fast(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the fast algorithm of Section V-B
    (``O(n (b + k log b) log n)``-flavoured; see module docstring).

    Does not accept QoS bounds — use :func:`select_chord_dp` for those.
    """
    return select_chord_many([problem])[0]


def solver_blocks(problems: Iterable[SelectionProblem]) -> Iterator[list[SelectionProblem]]:
    """Group ``problems`` lazily, in order, into blocks of at most
    :data:`BLOCK_CELLS` stacked anchor cells (a single larger problem is a
    block of its own), so a caller never holds more than one block of
    problems at a time."""
    block: list[SelectionProblem] = []
    cells = 0
    for problem in problems:
        size = (len(problem.frequencies) + len(problem.core_neighbors)) * (problem.space.bits + 1)
        if block and cells + size > BLOCK_CELLS:
            yield block
            block, cells = [], 0
        block.append(problem)
        cells += size
    if block:
        yield block


def _prefers_dp(problem: SelectionProblem) -> bool:
    return bool(problem.delay_bounds) or len(problem.frequencies) <= 32


def select_chord(problem: SelectionProblem) -> SelectionResult:
    """Solve a Chord selection problem with the appropriate algorithm:
    the quadratic DP for QoS-constrained or tiny instances, the fast
    divide-and-conquer solver otherwise."""
    if _prefers_dp(problem):
        return select_chord_dp(problem)
    return select_chord_fast(problem)


def select_chord_block(problems: Iterable[SelectionProblem]) -> list[SelectionResult]:
    """:func:`select_chord` on every problem of a block, the fast-solver
    ones solved together by :func:`select_chord_many`."""
    problems = list(problems)
    fast = iter(select_chord_many(problem for problem in problems if not _prefers_dp(problem)))
    return [
        select_chord_dp(problem) if _prefers_dp(problem) else next(fast) for problem in problems
    ]
