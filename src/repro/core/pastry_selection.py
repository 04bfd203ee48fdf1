"""Auxiliary-neighbor selection for Pastry (paper Section IV).

Peers are leaves of a binary trie of their ids; the estimated distance
between two peers is the height of their lowest common ancestor
(Proposition 4.1), i.e. ``b - lcp``. Selecting the ``k`` best auxiliary
neighbors is then a budgeted pointer-placement problem on the trie, solved
bottom-up (eq. 2/3):

``C(T_a, j) = min over splits (i, j-i) of
C(L_a, i) + F(L_a)·[no pointer in L_a] + C(R_a, j-i) + F(R_a)·[no pointer in R_a]``

Four solvers are provided:

* :func:`select_pastry_dp` — the paper's ``O(n k^2 b)`` dynamic program
  (``O(n k^2)`` here thanks to path compression), trying every split at
  every vertex. Also supports QoS delay bounds (Section IV-D) via
  "this subtree must contain a pointer" markers.
* :func:`select_pastry_greedy` — the paper's ``O(n k b)`` algorithm
  exploiting the nesting property (P): the optimal ``j-1``-pointer set is
  a subset of the optimal ``j``-pointer set, so each vertex only compares
  two candidate splits per budget level (eq. 4). It never builds a
  :class:`~repro.core.trie.PeerTrie`: the compressed trie is the
  Cartesian tree of the sorted ids' adjacent-LCP array, built and merged
  in one stack pass over flat per-vertex lists (DESIGN.md §16).
* :func:`select_pastry_greedy_trie` — the same eq.-4 merge run over a
  :class:`~repro.core.trie.PeerTrie`; the exact oracle the flat greedy is
  tested and ``repro check``-ed against (same set, same cost bits).
* :class:`IncrementalPastrySelector` — Section IV-C: maintains the trie
  and all memoized cost tables across frequency updates, peer joins and
  peer leaves, recomputing only the ``O(b)`` vertices on the affected
  root-to-leaf path (``O(b k)`` per update).

:func:`select_pastry` dispatches: QoS-constrained problems go to the DP
solver (whose optimality under subtree constraints is immediate), the rest
to the flat greedy.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.trie import PeerTrie, TrieVertex
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

__all__ = [
    "select_pastry",
    "select_pastry_dp",
    "select_pastry_greedy",
    "select_pastry_greedy_trie",
    "IncrementalPastrySelector",
]

_INF = float("inf")

#: Budget size beyond which the DP merge switches to the NumPy min-plus
#: kernel (below it, array setup dominates the O(k^2) Python loop).
_DP_VECTOR_MIN_BUDGET = 32


class _CostTable:
    """Memoized DP state for one trie vertex.

    ``costs[j]`` is ``C(T_a, j)``, the minimum cost contributed below this
    vertex when ``j`` auxiliary pointers are placed in its subtree.
    ``splits[j]`` records how many of those ``j`` go to the first child
    (in bit order), enabling selection reconstruction.
    """

    __slots__ = ("costs", "splits")

    def __init__(self, costs: list[float], splits: list[int]) -> None:
        self.costs = costs
        self.splits = splits


def _leaf_table(vertex: TrieVertex, k: int) -> _CostTable:
    """Cost table for a leaf: zero internal cost; one pointer may sit on the
    leaf itself when it is eligible (not a core neighbor). A QoS-required
    leaf without a core pointer is infeasible at ``j = 0``."""
    costs = [0.0]
    if not vertex.is_core and k >= 1:
        costs.append(0.0)
    if vertex.required and not vertex.is_core:
        costs[0] = _INF
    return _CostTable(costs, [])


def _edge_penalty(child: TrieVertex) -> float:
    """Cost added for the compressed edge into ``child`` when its subtree
    receives no pointer: one unit per uncompressed edge per unit frequency
    (the indicator terms of eq. 2, summed along the unary chain)."""
    return child.edge_length() * child.frequency_sum


def _child_cost(child: TrieVertex, j: int) -> float:
    """``C(child, j)`` plus the edge penalty when the subtree stays empty."""
    table: _CostTable = child.memo  # type: ignore[assignment]
    cost = table.costs[j]
    if j == 0 and not child.has_core:
        cost += _edge_penalty(child)
    return cost


def _merge_dp(vertex: TrieVertex, k: int) -> _CostTable:
    """Exact merge: try every split of ``j`` pointers between the children
    (eq. 3). ``O(k^2)`` per vertex."""
    children = vertex.child_order()
    jmax = min(k, vertex.eligible_count)
    if not children:
        table = _CostTable([0.0], [0])
    elif len(children) == 1:
        child = children[0]
        child_max = len(child.memo.costs) - 1  # type: ignore[union-attr]
        costs = [_child_cost(child, min(j, child_max)) for j in range(jmax + 1)]
        table = _CostTable(costs, [min(j, child_max) for j in range(jmax + 1)])
    elif _np is not None and jmax >= _DP_VECTOR_MIN_BUDGET:
        table = _merge_dp_vectorized(vertex, jmax)
    else:
        first, second = children
        first_max = len(first.memo.costs) - 1  # type: ignore[union-attr]
        second_max = len(second.memo.costs) - 1  # type: ignore[union-attr]
        costs: list[float] = []
        splits: list[int] = []
        for j in range(jmax + 1):
            best_cost = _INF
            best_split = min(j, first_max)
            low = max(0, j - second_max)
            high = min(j, first_max)
            for i in range(low, high + 1):
                cost = _child_cost(first, i) + _child_cost(second, j - i)
                if cost < best_cost:
                    best_cost = cost
                    best_split = i
            costs.append(best_cost)
            splits.append(best_split)
        table = _CostTable(costs, splits)
    if vertex.required and not vertex.has_core and table.costs:
        table.costs[0] = _INF
    return table


def _merge_dp_vectorized(vertex: TrieVertex, jmax: int) -> _CostTable:
    """NumPy form of the exact two-child merge: the ``(j, i)`` split matrix
    ``fc[i] + sc[j-i]`` (a min-plus convolution) is built once and reduced
    with a row-wise argmin. Matches the scalar loop's leftmost-minimum tie
    break, so the reconstructed selections are identical."""
    first, second = vertex.child_order()
    fc = list(first.memo.costs)  # type: ignore[union-attr]
    sc = list(second.memo.costs)  # type: ignore[union-attr]
    if not first.has_core:
        fc[0] += _edge_penalty(first)
    if not second.has_core:
        sc[0] += _edge_penalty(second)
    fc_arr = _np.asarray(fc, dtype=_np.float64)
    sc_arr = _np.asarray(sc, dtype=_np.float64)
    i_index = _np.arange(len(fc))[None, :]
    remainder = _np.arange(jmax + 1)[:, None] - i_index
    valid = (remainder >= 0) & (remainder < len(sc))
    matrix = _np.where(
        valid,
        fc_arr[i_index] + sc_arr[_np.clip(remainder, 0, len(sc) - 1)],
        _INF,
    )
    splits = _np.argmin(matrix, axis=1)
    costs = matrix[_np.arange(jmax + 1), splits]
    return _CostTable(costs.tolist(), splits.tolist())


def _merge_greedy(vertex: TrieVertex, k: int) -> _CostTable:
    """Nesting-property merge (eq. 4): the optimal split for ``j`` extends
    the optimal split for ``j-1`` by one pointer on one side. ``O(k)``."""
    children = vertex.child_order()
    jmax = min(k, vertex.eligible_count)
    if not children:
        return _CostTable([0.0], [0])
    if len(children) == 1:
        child = children[0]
        child_max = len(child.memo.costs) - 1  # type: ignore[union-attr]
        costs = [_child_cost(child, min(j, child_max)) for j in range(jmax + 1)]
        return _CostTable(costs, [min(j, child_max) for j in range(jmax + 1)])
    first, second = children
    first_max = len(first.memo.costs) - 1  # type: ignore[union-attr]
    second_max = len(second.memo.costs) - 1  # type: ignore[union-attr]
    costs = [_child_cost(first, 0) + _child_cost(second, 0)]
    splits = [0]
    for j in range(1, jmax + 1):
        left = splits[j - 1]
        right = j - 1 - left
        grow_left = _child_cost(first, left + 1) + _child_cost(second, right) if left + 1 <= first_max else _INF
        grow_right = _child_cost(first, left) + _child_cost(second, right + 1) if right + 1 <= second_max else _INF
        if grow_left <= grow_right:
            costs.append(grow_left)
            splits.append(left + 1)
        else:
            costs.append(grow_right)
            splits.append(left)
    return _CostTable(costs, splits)


def _build_trie(problem: SelectionProblem) -> PeerTrie:
    """Materialize the trie for a selection problem: observed peers,
    core neighbors (zero-frequency unless also observed) and QoS markers."""
    trie = PeerTrie(problem.space)
    for peer, weight in problem.frequencies.items():
        trie.insert(peer, weight)
    for neighbor in problem.core_neighbors:
        trie.insert(neighbor, problem.frequencies.get(neighbor, 0.0), is_core=True)
    for peer, bound in problem.delay_bounds.items():
        if peer not in trie:
            trie.insert(peer, 0.0)
        # Total lookup estimate is 1 + d; a bound of x hops allows d <= x-1.
        trie.set_required(peer, bound - 1)
    return trie


def _fill_tables(trie: PeerTrie, k: int, use_dp: bool) -> None:
    """Bottom-up pass computing every vertex's cost table."""
    merge = _merge_dp if use_dp else _merge_greedy
    for vertex in trie.postorder():
        if vertex.is_leaf:
            vertex.memo = _leaf_table(vertex, k)
        else:
            vertex.memo = merge(vertex, k)


def _collect_selection(vertex: TrieVertex, budget: int, out: list[int]) -> None:
    """Walk the recorded splits downward, emitting the chosen leaves."""
    if budget == 0:
        return
    if vertex.is_leaf:
        out.append(vertex.peer)  # budget is necessarily 1 here
        return
    children = vertex.child_order()
    table: _CostTable = vertex.memo  # type: ignore[assignment]
    if len(children) == 1:
        _collect_selection(children[0], table.splits[budget], out)
        return
    first_share = table.splits[budget]
    _collect_selection(children[0], first_share, out)
    _collect_selection(children[1], budget - first_share, out)


def _result_from_trie(trie: PeerTrie, k: int, algorithm: str) -> SelectionResult:
    """Read the root table, reconstruct the pointer set and translate the
    internal trie cost into the paper's objective (eq. 1):
    ``Cost = sum f_v (1 + d_v) = trie cost + total frequency``."""
    root = trie.root
    if root.memo is None:  # empty trie
        return SelectionResult(frozenset(), 0.0, algorithm)
    table: _CostTable = root.memo  # type: ignore[assignment]
    # Extra pointers never increase the cost, so the full usable budget
    # (capped by the number of eligible leaves) is always optimal.
    budget = min(k, len(table.costs) - 1)
    if table.costs[budget] == _INF:
        raise InfeasibleConstraintError(
            f"QoS delay bounds cannot be met with k={k} auxiliary pointers"
        )
    chosen: list[int] = []
    _collect_selection(root, budget, chosen)
    cost = table.costs[budget] + trie.total_frequency()
    return SelectionResult(frozenset(chosen), cost, algorithm)


def select_pastry_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n k^2)`` dynamic program (Section IV-A).

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when they cannot
    be met with ``k`` pointers.
    """
    trie = _build_trie(problem)
    _fill_tables(trie, problem.k, use_dp=True)
    return _result_from_trie(trie, problem.k, "pastry-dp")


def select_pastry_greedy_trie(problem: SelectionProblem) -> SelectionResult:
    """The eq.-4 greedy run over a :class:`PeerTrie` — the test and
    ``repro check`` oracle of :func:`select_pastry_greedy`, which must
    match it exactly (same set, same cost bits, same label)."""
    if problem.delay_bounds:
        raise ConfigurationError("greedy solver does not support delay bounds; use select_pastry_dp")
    trie = _build_trie(problem)
    _fill_tables(trie, problem.k, use_dp=False)
    return _result_from_trie(trie, problem.k, "pastry-greedy")


def select_pastry_greedy(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n k)`` nesting-property algorithm
    (Section IV-B). Does not accept QoS bounds — use the DP for those.

    Flat form of :func:`select_pastry_greedy_trie` (DESIGN.md §16). The
    sorted ids' adjacent LCPs define the compressed trie as their
    Cartesian tree: a right-spine stack emits its vertices in post-order
    into flat lists, and each internal vertex is merged (eq. 4) as soon as
    both children are done. Aggregates, edge penalties, tie-break and
    reconstruction order mirror the trie solver operation for operation,
    so the result is bit-identical to it.
    """
    if problem.delay_bounds:
        raise ConfigurationError("greedy solver does not support delay bounds; use select_pastry_dp")
    k = problem.k
    bits = problem.space.bits
    frequencies = problem.frequencies
    core = problem.core_neighbors
    ids = sorted(frequencies.keys() | core)
    if not ids:
        return SelectionResult(frozenset(), 0.0, "pastry-greedy")
    # The depth of the vertex splitting ids[i] from ids[i+1]; the -1
    # sentinel after the last leaf closes the whole right spine.
    lcps = [bits - (a ^ b).bit_length() for a, b in zip(ids, ids[1:])]
    lcps.append(-1)
    # Per-vertex state in post-order; leaves carry their peer, internal
    # vertices their children and eq.-4 splits.
    depth: list[int] = []
    mass: list[float] = []
    core_below: list[bool] = []
    eligible: list[int] = []
    costs: list[list[float]] = []
    splits: list[list[int] | None] = []
    left: list[int] = []
    right: list[int] = []
    leaf_peer: list[int | None] = []
    # Right spine: (depth, finished left child) of vertices awaiting their
    # right child, depths strictly increasing (a binary trie has exactly
    # one adjacent pair at each split, so no two entries tie).
    spine: list[tuple[int, int]] = []
    for peer, split_depth in zip(ids, lcps):
        current = len(depth)
        is_core = peer in core
        depth.append(bits)
        mass.append(frequencies.get(peer, 0.0))
        core_below.append(is_core)
        eligible.append(0 if is_core else 1)
        costs.append([0.0] if is_core or k < 1 else [0.0, 0.0])
        splits.append(None)
        left.append(-1)
        right.append(-1)
        leaf_peer.append(peer)
        while spine and spine[-1][0] > split_depth:
            vertex_depth, first = spine.pop()
            second = current
            first_costs = costs[first]
            second_costs = costs[second]
            # Edge penalty of an empty child subtree (eq. 2), folded into
            # its j = 0 entry: every child is merged into one parent only.
            if not core_below[first]:
                first_costs[0] += (depth[first] - vertex_depth) * mass[first]
            if not core_below[second]:
                second_costs[0] += (depth[second] - vertex_depth) * mass[second]
            first_max = len(first_costs) - 1
            second_max = len(second_costs) - 1
            count = eligible[first] + eligible[second]
            row = [first_costs[0] + second_costs[0]]
            shares = [0]
            share_first = share_second = 0
            for _ in range(min(k, count)):
                grow_first = (
                    first_costs[share_first + 1] + second_costs[share_second]
                    if share_first < first_max
                    else _INF
                )
                grow_second = (
                    first_costs[share_first] + second_costs[share_second + 1]
                    if share_second < second_max
                    else _INF
                )
                if grow_first <= grow_second:
                    row.append(grow_first)
                    share_first += 1
                else:
                    row.append(grow_second)
                    share_second += 1
                shares.append(share_first)
            current = len(depth)
            depth.append(vertex_depth)
            # ``0 +`` reproduces ``sum()`` over the two children exactly.
            mass.append(0 + mass[first] + mass[second])
            core_below.append(core_below[first] or core_below[second])
            eligible.append(count)
            costs.append(row)
            splits.append(shares)
            left.append(first)
            right.append(second)
            leaf_peer.append(None)
        spine.append((split_depth, current))
    top = current
    table = costs[top]
    total = mass[top]
    if depth[top] > 0:
        # The trie's root sits at depth 0. A unary root passes every budget
        # to its single child: its table is the child's plus the edge
        # penalty, its F is ``sum()`` over that one child.
        if not core_below[top]:
            table[0] += depth[top] * mass[top]
        total = 0 + total
    budget = min(k, len(table) - 1)
    # Without delay bounds only an overflowing cost is infinite; the trie
    # oracle raises the same error for it.
    if table[budget] == _INF:
        raise InfeasibleConstraintError(
            f"QoS delay bounds cannot be met with k={k} auxiliary pointers"
        )
    chosen: list[int] = []
    pending = [(top, budget)]
    while pending:
        vertex, share = pending.pop()
        if share == 0:
            continue
        peer = leaf_peer[vertex]
        if peer is not None:
            chosen.append(peer)
            continue
        first_share = splits[vertex][share]  # type: ignore[index]
        pending.append((right[vertex], share - first_share))
        pending.append((left[vertex], first_share))
    return SelectionResult(frozenset(chosen), table[budget] + total, "pastry-greedy")


def select_pastry(problem: SelectionProblem) -> SelectionResult:
    """Solve a Pastry selection problem with the appropriate algorithm:
    the DP when QoS bounds are present, the flat greedy otherwise."""
    if problem.delay_bounds:
        return select_pastry_dp(problem)
    return select_pastry_greedy(problem)


class IncrementalPastrySelector:
    """Incrementally-maintained optimal selection (Section IV-C).

    Keeps the trie and all per-vertex cost tables alive between queries.
    Each frequency update, peer join or peer leave triggers recomputation
    only along the affected root-to-leaf path — ``O(b k)`` work — after
    which :meth:`selection` reconstructs the current optimum in
    ``O(k b)``.

    Example
    -------
    >>> from repro.util.ids import IdSpace
    >>> selector = IncrementalPastrySelector(IdSpace(8), source=0,
    ...                                      core_neighbors=[128], k=2)
    >>> selector.observe(3, 10.0)
    >>> selector.observe(77, 4.0)
    >>> sorted(selector.selection().auxiliary)
    [3, 77]
    """

    def __init__(
        self,
        space: IdSpace,
        source: int,
        core_neighbors: Sequence[int],
        k: int,
    ) -> None:
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self.space = space
        self.source = space.validate(source, "source id")
        self.k = k
        self._delay_bounds: dict[int, int] = {}
        self._trie = PeerTrie(space, on_path_change=self._refresh_path)
        self._core: set[int] = set()
        for neighbor in core_neighbors:
            self.add_core_neighbor(neighbor)

    # -- mutations ------------------------------------------------------
    def observe(self, peer: int, weight: float = 1.0) -> None:
        """Record query traffic toward ``peer`` (adds ``weight`` to its
        frequency, inserting the peer if unseen)."""
        if peer == self.source:
            return  # queries for locally-held items need no pointer
        if peer in self._trie:
            self._trie.add_frequency(peer, weight)
        else:
            self._trie.insert(peer, weight)

    def set_frequency(self, peer: int, frequency: float) -> None:
        """Overwrite the frequency of ``peer`` (inserting it if unseen)."""
        if peer == self.source:
            return
        if peer in self._trie:
            self._trie.update_frequency(peer, frequency)
        else:
            self._trie.insert(peer, frequency)

    def remove_peer(self, peer: int) -> None:
        """Forget a departed peer entirely."""
        if peer in self._trie:
            self._trie.remove(peer)
        self._core.discard(peer)
        self._delay_bounds.pop(peer, None)

    def add_core_neighbor(self, neighbor: int) -> None:
        """Register a core routing-table entry (a free pointer)."""
        self.space.validate(neighbor, "core neighbor id")
        if neighbor == self.source:
            raise ConfigurationError("the source node cannot be its own neighbor")
        self._core.add(neighbor)
        if neighbor in self._trie:
            leaf = self._trie.leaf(neighbor)
            self._trie.insert(neighbor, leaf.frequency, is_core=True)
        else:
            self._trie.insert(neighbor, 0.0, is_core=True)

    def set_delay_bound(self, peer: int, bound: int) -> None:
        """Install a QoS bound: lookups for ``peer`` within ``bound`` hops."""
        if bound < 1:
            raise ConfigurationError(f"delay bound must be >= 1, got {bound}")
        if peer not in self._trie:
            self._trie.insert(peer, 0.0)
        self._delay_bounds[peer] = bound
        self._trie.set_required(peer, bound - 1)

    def clear_delay_bounds(self) -> None:
        """Drop all QoS constraints and rebuild the memo tables."""
        self._delay_bounds.clear()
        self._trie.clear_required()
        self.rebuild()

    def set_k(self, k: int) -> None:
        """Change the pointer budget (forces a full ``O(n k)`` rebuild)."""
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self.k = k
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every memo table from scratch."""
        _fill_tables(self._trie, self.k, use_dp=bool(self._delay_bounds))

    # -- queries --------------------------------------------------------
    def selection(self) -> SelectionResult:
        """Current optimal auxiliary set for the maintained frequencies."""
        return _result_from_trie(self._trie, self.k, "pastry-incremental")

    def frequencies(self) -> dict[int, float]:
        """Snapshot of maintained per-peer frequencies (observed peers only)."""
        return {
            leaf.peer: leaf.frequency
            for leaf in self._trie.leaves()
            if leaf.frequency > 0
        }

    def problem(self) -> SelectionProblem:
        """Express the maintained state as a one-shot problem (for tests)."""
        return SelectionProblem(
            space=self.space,
            source=self.source,
            frequencies=self.frequencies(),
            core_neighbors=frozenset(self._core),
            k=self.k,
            delay_bounds=dict(self._delay_bounds),
        )

    # -- internals ------------------------------------------------------
    def _refresh_path(self, path: list[TrieVertex]) -> None:
        use_dp = bool(self._delay_bounds)
        merge = _merge_dp if use_dp else _merge_greedy
        for vertex in path:
            if vertex.is_leaf:
                vertex.memo = _leaf_table(vertex, self.k)
            else:
                for child in vertex.children.values():
                    if child.memo is None:
                        # A structural change can hang a pre-existing
                        # subtree under a fresh split vertex; its table is
                        # still valid, but a brand-new sibling needs one.
                        _fill_tables_subtree(child, self.k, use_dp)
                vertex.memo = merge(vertex, self.k)


def _fill_tables_subtree(vertex: TrieVertex, k: int, use_dp: bool) -> None:
    """Fill missing tables below ``vertex`` (used for fresh split vertices)."""
    merge = _merge_dp if use_dp else _merge_greedy
    stack: list[tuple[TrieVertex, bool]] = [(vertex, False)]
    while stack:
        current, expanded = stack.pop()
        if current.is_leaf:
            current.memo = _leaf_table(current, k)
            continue
        if expanded:
            current.memo = merge(current, k)
            continue
        stack.append((current, True))
        for child in current.child_order():
            stack.append((child, False))
