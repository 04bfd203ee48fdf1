"""Frequency-oblivious auxiliary-neighbor baselines (paper Section VI-A).

The paper's evaluation metric is the percentage reduction in average hop
count relative to a scheme that picks the ``k`` extra pointers *without*
looking at access frequencies:

* **Chord**: with ``k = r log n``, pick ``r`` auxiliary neighbors uniformly
  at random within each clockwise distance range ``(2**i, 2**(i+1))`` —
  i.e. ``r`` extra pointers per finger interval.
* **Pastry**: pick ``r`` auxiliary neighbors per prefix-match class — for
  each shared-prefix length, ``r`` random peers whose longest common prefix
  with the source has exactly that length.

Ranges/classes that hold no candidates contribute nothing; any leftover
budget is filled uniformly at random from the remaining candidates so the
baseline always spends the same budget as the optimized scheme (and the
comparison stays apples-to-apples).

A plain uniform-random baseline is included for ablations.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Sequence

from repro.core.cost import _bit_lengths, _np, chord_cost, chord_cost_arrays, pastry_cost
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.ids import IdSpace

__all__ = [
    "select_chord_oblivious",
    "select_chord_oblivious_arrays",
    "select_kademlia_oblivious",
    "select_pastry_oblivious",
    "select_uniform_random",
]


def _candidate_pool(problem: SelectionProblem, pool: Sequence[int] | None) -> set[int]:
    """The baseline's eligible pointer targets.

    The paper's frequency-oblivious scheme picks *random nodes per
    distance class* — it does not restrict itself to previously-queried
    peers (any Chord/Pastry node can discover a random node in a range
    with one lookup, exactly as core-table maintenance does). Callers that
    know the node population pass it via ``pool``; without one we fall
    back to the observed candidates.
    """
    if pool is None:
        return problem.candidates
    return set(pool) - set(problem.core_neighbors) - {problem.source}


def _fill_remaining(chosen: set[int], candidates: Iterable[int], k: int, rng: random.Random) -> None:
    """Top up ``chosen`` to ``k`` entries from the unused candidates."""
    leftovers = sorted(set(candidates) - chosen)
    missing = k - len(chosen)
    if missing > 0 and leftovers:
        chosen.update(rng.sample(leftovers, min(missing, len(leftovers))))


def _class_quotas(k: int, class_count: int) -> list[int]:
    """Per-class budgets in visit order: the paper's ``r`` pointers per
    class, with the remainder of ``k = r * class_count + rem`` spread
    round-robin over the first ``rem`` classes visited.

    Previously the remainder was silently dropped (``max(1, k //
    class_count)``), leaving it to the uniform ``_fill_remaining`` top-up
    — which quietly degraded the per-class baseline toward uniform
    random whenever ``class_count`` did not divide ``k``. For
    ``k < class_count`` the quotas degenerate to one pointer for each of
    the first ``k`` classes visited, matching the old behavior there.
    """
    if class_count == 0:
        return []
    base, remainder = divmod(k, class_count)
    if base == 0:
        # Budget below one-per-class: a single pointer for each class,
        # the caller's running ``k - len(chosen)`` cap stops after ``k``.
        return [1] * class_count
    return [base + (1 if index < remainder else 0) for index in range(class_count)]


def select_chord_oblivious(
    problem: SelectionProblem,
    rng: random.Random,
    pool: Sequence[int] | None = None,
) -> SelectionResult:
    """Chord baseline: ``r`` random pointers per finger range ``(2**i, 2**(i+1))``."""
    space = problem.space
    source = problem.source
    candidates = _candidate_pool(problem, pool)
    by_range: dict[int, list[int]] = defaultdict(list)
    for peer in sorted(candidates):
        gap = space.gap(source, peer)
        if gap:
            by_range[gap.bit_length() - 1].append(peer)
    quotas = _class_quotas(problem.k, len(by_range))
    chosen: set[int] = set()
    # Visit ranges far-to-near so the far (densely populated) intervals are
    # covered first when the budget is tight.
    for quota, bucket in zip(quotas, sorted(by_range, reverse=True)):
        if len(chosen) >= problem.k:
            break
        take = min(quota, len(by_range[bucket]), problem.k - len(chosen))
        chosen.update(rng.sample(by_range[bucket], take))
    _fill_remaining(chosen, candidates, problem.k, rng)
    cost = chord_cost(space, source, problem.frequencies, problem.core_neighbors, chosen)
    return SelectionResult(frozenset(chosen), cost, "chord-oblivious")


def select_chord_oblivious_arrays(
    insts, k: int, rng: random.Random, space: IdSpace, pool: Sequence[int]
) -> list[SelectionResult]:
    """:func:`select_chord_oblivious` at every node of a block of
    :func:`~repro.core.chord_selection.chord_instance` instances, in
    order, all at budget ``k`` and drawing from the live ids ``pool``.

    Draw for draw the per-node baseline: each node's candidates are the
    sorted pool minus its core and itself; they are bucketed by finger
    range ``floor(log2 gap)`` and ordered far to near by a stable argsort
    (each bucket keeps id order, as the per-node lists do); every
    ``rng.sample`` call is made on ``range(len(bucket))`` with the same
    population size and count, so it consumes the same numbers and picks
    the same positions. Quotas and the top-up are the per-node ones. The
    cost is :func:`chord_cost` on the node's frequency snapshot in
    snapshot order (the instance's ``order``), so its bits match too."""
    alive = _np.unique(_np.asarray(pool, dtype=_np.int64))
    mask = _np.int64(space.mask)
    results = []
    for inst in insts:
        source = inst.source
        core = (inst.core_gaps + source) & mask
        drop = _np.append(core, source)
        slot = _np.searchsorted(alive, drop)
        hit = slot < alive.size
        hit[hit] = alive[slot[hit]] == drop[hit]
        keep = _np.ones(alive.size, dtype=bool)
        keep[slot[hit]] = False
        candidates = alive[keep]
        gaps = (candidates - source) & mask
        ranges = _bit_lengths(gaps) - 1  # floor(log2 gap): the finger range
        ranked = _np.argsort(-ranges, kind="stable")
        ranges = ranges[ranked]
        starts = _np.flatnonzero(_np.diff(ranges, prepend=ranges[:1] + 1))
        sizes = _np.diff(starts, append=ranges.size)
        chosen = _np.zeros(candidates.size, dtype=bool)
        taken = 0
        for quota, start, size in zip(
            _class_quotas(k, starts.size), starts.tolist(), sizes.tolist()
        ):
            if taken >= k:
                break
            take = min(quota, size, k - taken)
            chosen[ranked[start + _np.asarray(rng.sample(range(size), take), dtype=_np.int64)]] = True
            taken += take
        # _fill_remaining: the unused candidates, ascending.
        leftovers = _np.flatnonzero(~chosen)
        if k > taken and leftovers.size:
            picks = rng.sample(range(leftovers.size), min(k - taken, leftovers.size))
            chosen[leftovers[_np.asarray(picks, dtype=_np.int64)]] = True
        auxiliary = candidates[chosen]
        peers = _np.empty_like(inst.ids)
        weights = _np.empty_like(inst.weights)
        peers[inst.order] = inst.ids
        weights[inst.order] = inst.weights
        cost = chord_cost_arrays(space, source, peers, weights, _np.append(core, auxiliary))
        results.append(SelectionResult(frozenset(auxiliary.tolist()), cost, "chord-oblivious"))
    return results


def select_pastry_oblivious(
    problem: SelectionProblem,
    rng: random.Random,
    pool: Sequence[int] | None = None,
) -> SelectionResult:
    """Pastry baseline: ``r`` random pointers per shared-prefix-length class."""
    space = problem.space
    source = problem.source
    candidates = _candidate_pool(problem, pool)
    by_class: dict[int, list[int]] = defaultdict(list)
    for peer in sorted(candidates):
        by_class[space.common_prefix_length(source, peer)].append(peer)
    quotas = _class_quotas(problem.k, len(by_class))
    chosen: set[int] = set()
    # Short-prefix classes hold most peers; cover them first.
    for quota, shared in zip(quotas, sorted(by_class)):
        if len(chosen) >= problem.k:
            break
        take = min(quota, len(by_class[shared]), problem.k - len(chosen))
        chosen.update(rng.sample(by_class[shared], take))
    _fill_remaining(chosen, candidates, problem.k, rng)
    cost = pastry_cost(space, problem.frequencies, problem.core_neighbors, chosen)
    return SelectionResult(frozenset(chosen), cost, "pastry-oblivious")


def select_kademlia_oblivious(
    problem: SelectionProblem,
    rng: random.Random,
    pool: Sequence[int] | None = None,
) -> SelectionResult:
    """Kademlia baseline: ``r`` random pointers per XOR distance class.

    XOR distance classes are exactly shared-prefix-length classes
    (``bitlength(u XOR v) = b - lcp(u, v)``), so the per-class draw — and
    the eq.-1 cost of the result — coincides with the Pastry baseline;
    only the provenance label differs.
    """
    result = select_pastry_oblivious(problem, rng, pool=pool)
    return SelectionResult(result.auxiliary, result.cost, "kademlia-oblivious")


def select_uniform_random(
    problem: SelectionProblem,
    rng: random.Random,
    overlay: str,
    pool: Sequence[int] | None = None,
) -> SelectionResult:
    """Ablation baseline: ``k`` pointers uniformly at random among candidates."""
    candidates = sorted(_candidate_pool(problem, pool))
    chosen = set(rng.sample(candidates, min(problem.k, len(candidates))))
    if overlay in ("pastry", "kademlia"):
        cost = pastry_cost(problem.space, problem.frequencies, problem.core_neighbors, chosen)
    else:
        cost = chord_cost(
            problem.space, problem.source, problem.frequencies, problem.core_neighbors, chosen
        )
    return SelectionResult(frozenset(chosen), cost, f"{overlay}-uniform-random")
