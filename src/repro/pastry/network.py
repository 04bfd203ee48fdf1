"""The Pastry overlay: membership, responsibility, maintenance, policies.

Keys are assigned to the *numerically closest* live node (Section II-A).
Core routing tables are rebuilt locality-aware, as in FreePastry: for each
``(row, digit)`` cell a few candidates from the matching id range are
sampled and the proximally closest one becomes the entry (DESIGN.md §5
documents this as the sampling approximation of FreePastry's table
maintenance).

Churn semantics mirror the Chord substrate: crashes leave stale pointers at
other nodes until a lookup timeout or the next stabilization round cleans
them up.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Callable, Iterable

from repro.core.frequency import ExactFrequencyTable
from repro.core.oblivious import select_pastry_oblivious, select_uniform_random
from repro.core.pastry_selection import select_pastry
from repro.core.types import SelectionProblem, SelectionResult
from repro.pastry.node import PastryNode
from repro.pastry.proximity import ProximityModel
from repro.pastry.routing import PastryLookupResult, circular_distance, route
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace
from repro.util.validation import require_non_negative_int, require_positive_int

__all__ = [
    "PastryNetwork",
    "optimal_policy",
    "oblivious_policy",
    "uniform_policy",
]

#: Signature of an auxiliary-selection policy: (problem, rng, overlay).
#: The overlay lets frequency-oblivious baselines draw random nodes per
#: prefix class from the whole population, as the paper specifies.
AuxiliaryPolicy = Callable[[SelectionProblem, random.Random, "PastryNetwork"], SelectionResult]


def optimal_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "PastryNetwork | None" = None
) -> SelectionResult:
    """The paper's frequency-aware optimal selection (rng/overlay unused)."""
    return select_pastry(problem)


def oblivious_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "PastryNetwork | None" = None
) -> SelectionResult:
    """The frequency-oblivious baseline of Section VI-A: random nodes per
    prefix class, drawn from the live population when available."""
    pool = overlay.alive_ids() if overlay is not None else None
    return select_pastry_oblivious(problem, rng, pool=pool)


def uniform_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "PastryNetwork | None" = None
) -> SelectionResult:
    """Uniform-random ablation baseline."""
    pool = overlay.alive_ids() if overlay is not None else None
    return select_uniform_random(problem, rng, "pastry", pool=pool)


class PastryNetwork:
    """A complete Pastry overlay with explicit, inspectable state.

    Example
    -------
    >>> network = PastryNetwork.build(64, space=IdSpace(16), seed=1)
    >>> result = network.lookup(network.alive_ids()[0], key=12345)
    >>> result.succeeded
    True
    """

    def __init__(
        self,
        space: IdSpace | None = None,
        digit_bits: int = 1,
        leaf_radius: int = 8,
        core_samples: int = 4,
        proximity_seed: int = 0,
    ) -> None:
        self.space = space or IdSpace()
        require_positive_int(digit_bits, "digit_bits")
        require_positive_int(leaf_radius, "leaf_radius")
        require_positive_int(core_samples, "core_samples")
        self.digit_bits = digit_bits
        self.leaf_radius = leaf_radius
        self.core_samples = core_samples
        self.proximity = ProximityModel(proximity_seed)
        self.nodes: dict[int, PastryNode] = {}
        self._alive: list[int] = []
        self._maintenance_rng = random.Random(proximity_seed ^ 0x5A5A5A)
        self._telemetry = None  # set via attach_telemetry

    def attach_telemetry(self, telemetry) -> None:
        """Attach (or detach with ``None``) a telemetry runtime; feeds the
        maintenance spans. Observe-only — never touches routing state or
        randomness (see :meth:`repro.chord.ring.ChordRing.attach_telemetry`).
        """
        self._telemetry = telemetry if telemetry is not None and telemetry.enabled else None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n: int,
        space: IdSpace | None = None,
        seed: int = 0,
        digit_bits: int = 1,
        leaf_radius: int = 8,
    ) -> "PastryNetwork":
        """Create a stabilized network of ``n`` nodes with random ids."""
        require_positive_int(n, "n")
        network = cls(space, digit_bits=digit_bits, leaf_radius=leaf_radius, proximity_seed=seed)
        rng = random.Random(seed)
        if n > network.space.size:
            raise ConfigurationError(f"cannot place {n} nodes in a {network.space.bits}-bit space")
        for node_id in rng.sample(range(network.space.size), n):
            network.add_node(node_id)
        network.stabilize_all()
        return network

    def add_node(self, node_id: int) -> PastryNode:
        """Add a brand-new node (not yet known to others)."""
        self.space.validate(node_id, "node id")
        if node_id in self.nodes:
            raise ConfigurationError(f"node {node_id} already exists")
        node = PastryNode(node_id, self.space, self.digit_bits, self.leaf_radius)
        self.nodes[node_id] = node
        insort(self._alive, node_id)
        self._rebuild_tables(node)
        return node

    def join_via(self, node_id: int, bootstrap: int) -> PastryNode:
        """Protocol-faithful join (Section II-A): route a join message from
        ``bootstrap`` toward the new node's own id and assemble state from
        the nodes on the path.

        As in Pastry, the node encountered at hop ``i`` shares at least
        ``i`` digits with the newcomer, so its routing rows seed the
        newcomer's corresponding rows; the final node — numerically
        closest to the new id — donates its leaf set. Other nodes learn
        about the newcomer only via their later stabilization rounds.
        """
        self.space.validate(node_id, "node id")
        if node_id in self.nodes and self.nodes[node_id].alive:
            raise ConfigurationError(f"node {node_id} already exists")
        boot = self.nodes.get(bootstrap)
        if boot is None or not boot.alive:
            raise NodeAbsentError(f"bootstrap node {bootstrap} is not alive")

        existing = self.nodes.get(node_id)
        if existing is not None:
            # Keep the node unroutable while the join message travels.
            existing.alive = False
        answer = route(self, bootstrap, node_id, record_access=False)
        node = existing
        if node is None:
            node = PastryNode(node_id, self.space, self.digit_bits, self.leaf_radius)
            self.nodes[node_id] = node
        node.cells.clear()
        node.core.clear()
        node.auxiliary.clear()
        node.leaves.clear()

        # Harvest routing state from every node the join message visited.
        core: set[int] = set()
        for visited in answer.path:
            donor = self.nodes[visited]
            core.add(visited)
            for entries in donor.cells.values():
                core.update(entries)
        core.discard(node_id)
        # Keep one entry per cell (the proximally closest, as FreePastry
        # would), so the harvested table has the usual shape.
        best_per_cell: dict[tuple[int, int], int] = {}
        for candidate in core:
            key = node.cell_key(candidate)
            incumbent = best_per_cell.get(key)
            if incumbent is None or self.proximity.latency(node_id, candidate) < self.proximity.latency(node_id, incumbent):
                best_per_cell[key] = candidate
        node.set_core(set(best_per_cell.values()))

        # Leaf set: seeded from the numerically closest node found.
        closest = self.nodes[answer.path[-1]]
        donated = {leaf for leaf in closest.leaves if leaf != node_id}
        donated.add(closest.node_id)
        node.set_leaves(donated)

        node.alive = True
        insort(self._alive, node_id)
        return node

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> PastryNode:
        """Fetch a node object by id (KeyError when unknown)."""
        return self.nodes[node_id]

    def alive_ids(self) -> list[int]:
        """Sorted ids of live nodes (a copy)."""
        return list(self._alive)

    def alive_count(self) -> int:
        return len(self._alive)

    def responsible(self, key: int) -> int:
        """The live node numerically closest to ``key`` (lower id on ties)."""
        if not self._alive:
            raise NodeAbsentError("network has no live nodes")
        index = bisect_left(self._alive, key)
        candidates = {
            self._alive[index % len(self._alive)],
            self._alive[index - 1],  # wraps via [-1]
        }
        return min(candidates, key=lambda c: (circular_distance(self.space, c, key), c))

    # ------------------------------------------------------------------
    # Verification hooks (read-only introspection)
    # ------------------------------------------------------------------
    def leaf_snapshot(self) -> dict[int, frozenset[int]]:
        """Per-live-node leaf sets, as installed right now."""
        return {
            node_id: self.nodes[node_id].leaf_snapshot() for node_id in self._alive
        }

    def reference_leaf_set(self, node_id: int) -> frozenset[int]:
        """Ground-truth leaf set from the global view — what a
        stabilization round installs. Verification compares per-node state
        against this independent derivation."""
        return frozenset(self._leaf_set(node_id))

    def hop_distances(self, path: Iterable[int], key: int) -> list[tuple[int, int]]:
        """``(shared_prefix_bits, circular_distance)`` from each path node
        to ``key`` — the two quantities Pastry routing must improve on
        every hop (longer prefix, or numerically closer)."""
        return [
            (
                self.space.common_prefix_length(node_id, key),
                circular_distance(self.space, node_id, key),
            )
            for node_id in path
        ]

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        """Abruptly fail a node; others keep stale pointers to it."""
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"node {node_id} is already down")
        node.crash()
        index = bisect_left(self._alive, node_id)
        del self._alive[index]

    def rejoin(self, node_id: int) -> None:
        """Bring a crashed node back with fresh state and rebuilt tables."""
        node = self.nodes[node_id]
        if node.alive:
            raise NodeAbsentError(f"node {node_id} is already up")
        node.alive = True
        insort(self._alive, node_id)
        self._rebuild_tables(node)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stabilize(self, node_id: int) -> None:
        """One node's maintenance round: rebuild core entries and leaf set
        from the current population and drop dead auxiliaries (the ping
        process of Section III extended to auxiliary entries)."""
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"cannot stabilize dead node {node_id}")
        tel = self._telemetry
        if tel is not None:
            with tel.span("maintenance.stabilize"):
                stale_aux = {aux for aux in node.auxiliary if not self.nodes[aux].alive}
                node.set_auxiliary(node.auxiliary - stale_aux)
                self._rebuild_tables(node)
            # One ping per auxiliary pointer plus the table re-init sweep.
            tel.add_work("maintenance.stabilize_messages", len(node.auxiliary) + len(stale_aux))
            tel.add_work("maintenance.stale_evictions", len(stale_aux))
            return
        stale_aux = {aux for aux in node.auxiliary if not self.nodes[aux].alive}
        node.set_auxiliary(node.auxiliary - stale_aux)
        self._rebuild_tables(node)

    def stabilize_all(self) -> None:
        """Stabilize every live node (used to reach a steady state)."""
        for node_id in self.alive_ids():
            self.stabilize(node_id)

    def recompute_auxiliary(
        self,
        node_id: int,
        k: int,
        policy: AuxiliaryPolicy,
        rng: random.Random,
        frequency_limit: int | None = None,
    ) -> SelectionResult:
        """Run a selection policy at one node and install the result."""
        require_non_negative_int(k, "k")
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"cannot select auxiliaries at dead node {node_id}")
        frequencies = node.frequency_snapshot(frequency_limit)
        problem = SelectionProblem(
            space=self.space,
            source=node_id,
            frequencies=frequencies,
            core_neighbors=frozenset(node.core | node.leaves),
            k=k,
        )
        tel = self._telemetry
        if tel is not None:
            previous = set(node.auxiliary)
            with tel.span("selection.recompute"):
                result = policy(problem, rng, self)
                node.set_auxiliary(set(result.auxiliary))
            tel.add_work(
                "selection.pointer_updates", len(previous ^ set(result.auxiliary))
            )
            return result
        result = policy(problem, rng, self)
        node.set_auxiliary(set(result.auxiliary))
        return result

    def recompute_all_auxiliary(
        self,
        k: int,
        policy: AuxiliaryPolicy,
        rng: random.Random,
        frequency_limit: int | None = None,
    ) -> None:
        """Recompute auxiliary sets at every live node."""
        for node_id in self.alive_ids():
            self.recompute_auxiliary(node_id, k, policy, rng, frequency_limit)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(
        self,
        source: int,
        key: int,
        mode: str = "proximity",
        record_access: bool = True,
        retry=None,
        faults=None,
        trace=None,
    ) -> PastryLookupResult:
        """Route a query for ``key`` from ``source``; see :func:`route`.

        ``retry``/``faults`` forward to the router's fault-aware knobs
        (:class:`~repro.faults.retry.RetryPolicy`,
        :class:`~repro.faults.plane.FaultPlane`); ``trace`` attaches an
        observe-only :class:`~repro.obs.recorder.TraceRecorder`."""
        return route(
            self,
            source,
            key,
            mode=mode,
            record_access=record_access,
            retry=retry,
            faults=faults,
            trace=trace,
        )

    def seed_frequencies(self, node_id: int, frequencies: dict[int, float]) -> None:
        """Pre-load a node's tracker with a destination distribution."""
        self.nodes[node_id].tracker = ExactFrequencyTable.from_weights(frequencies, exclude=node_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild_tables(self, node: PastryNode) -> None:
        node.set_core(self._locality_core(node.node_id))
        node.set_leaves(self._leaf_set(node.node_id))

    def _leaf_set(self, node_id: int) -> set[int]:
        """The ``leaf_radius`` numerically nearest live nodes on each side."""
        alive = self._alive
        others = len(alive) - 1
        if others <= 0:
            return set()
        index = bisect_left(alive, node_id)
        take = min(self.leaf_radius, others // 2 + others % 2)
        leaves: set[int] = set()
        for step in range(1, take + 1):
            leaves.add(alive[(index + step) % len(alive)])
            leaves.add(alive[(index - step) % len(alive)])
        leaves.discard(node_id)
        return leaves

    def _locality_core(self, node_id: int) -> set[int]:
        """One locality-chosen entry per (row, digit) cell.

        For each cell the candidate ids form a contiguous range; we sample
        up to ``core_samples`` live ids from it and keep the proximally
        closest — approximating FreePastry's proximity-aware table fill.
        """
        space = self.space
        alive = self._alive
        entries: set[int] = set()
        rows = space.num_digits(self.digit_bits)
        for row in range(rows):
            prefix_bits = row * self.digit_bits
            width = min(self.digit_bits, space.bits - prefix_bits)
            own_digit = space.digit_at(node_id, row, self.digit_bits)
            suffix_bits = space.bits - prefix_bits - width
            base = space.prefix(node_id, prefix_bits) << (space.bits - prefix_bits)
            for digit in range(1 << width):
                if digit == own_digit:
                    continue
                low = base | (digit << suffix_bits)
                high = low + (1 << suffix_bits)  # exclusive
                lo_index = bisect_left(alive, low)
                hi_index = bisect_left(alive, high)
                count = hi_index - lo_index
                if count <= 0:
                    continue
                if count <= self.core_samples:
                    sample = alive[lo_index:hi_index]
                else:
                    sample = [
                        alive[self._maintenance_rng.randrange(lo_index, hi_index)]
                        for __ in range(self.core_samples)
                    ]
                entries.add(self.proximity.closest(node_id, list(sample)))
        return entries
