"""The Kademlia overlay: membership, responsibility, maintenance, policies.

Keys are assigned to the live node *XOR-closest* to the key — XOR is
injective for a fixed key, so the owner is always unique (no tie-break
rule needed, unlike Chord's clockwise successor or Pastry's numeric
proximity). Core routing tables are rebuilt through the k-bucket tree of
:class:`repro.kademlia.node.RoutingTable`: every live id is offered to
the tree in ascending order and the surviving bucket contents become the
node's ``core`` contact set — fine-grained coverage near the own id
(own-range buckets split instead of evicting), at most ``bucket_size``
contacts per distant distance class.

Churn semantics mirror the Chord and Pastry substrates: crashes leave
stale contacts at other nodes until a lookup timeout or the next
stabilization round cleans them up.

The default id space is the protocol's 160-bit SHA-1 space
(:data:`KADEMLIA_BITS`); experiments pass narrower spaces, which also
keeps the eq.-1 cost kernels on their NumPy fast path (exact only below
53 bits — see :mod:`repro.core.kademlia_selection`).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Callable, Iterable

from repro.core.frequency import ExactFrequencyTable
from repro.core.kademlia_selection import select_kademlia
from repro.core.oblivious import select_kademlia_oblivious, select_uniform_random
from repro.core.types import SelectionProblem, SelectionResult
from repro.kademlia.node import KademliaNode, RoutingTable
from repro.kademlia.routing import (
    FindNodeResult,
    KademliaLookupResult,
    iterative_find_node,
    route,
)
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace
from repro.util.validation import require_non_negative_int, require_positive_int

__all__ = [
    "KADEMLIA_BITS",
    "KademliaNetwork",
    "optimal_policy",
    "oblivious_policy",
    "uniform_policy",
]

#: The protocol's canonical id width (SHA-1).
KADEMLIA_BITS = 160

#: Signature of an auxiliary-selection policy: (problem, rng, overlay).
AuxiliaryPolicy = Callable[[SelectionProblem, random.Random, "KademliaNetwork"], SelectionResult]


def optimal_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "KademliaNetwork | None" = None
) -> SelectionResult:
    """The paper's frequency-aware optimal selection (rng/overlay unused)."""
    return select_kademlia(problem)


def oblivious_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "KademliaNetwork | None" = None
) -> SelectionResult:
    """The frequency-oblivious baseline of Section VI-A: random nodes per
    XOR distance class, drawn from the live population when available."""
    pool = overlay.alive_ids() if overlay is not None else None
    return select_kademlia_oblivious(problem, rng, pool=pool)


def uniform_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "KademliaNetwork | None" = None
) -> SelectionResult:
    """Uniform-random ablation baseline."""
    pool = overlay.alive_ids() if overlay is not None else None
    return select_uniform_random(problem, rng, "kademlia", pool=pool)


class KademliaNetwork:
    """A complete Kademlia overlay with explicit, inspectable state.

    Example
    -------
    >>> network = KademliaNetwork.build(64, space=IdSpace(16), seed=1)
    >>> result = network.lookup(network.alive_ids()[0], key=12345)
    >>> result.succeeded
    True
    """

    def __init__(
        self,
        space: IdSpace | None = None,
        bucket_size: int = 8,
        alpha: int = 3,
    ) -> None:
        self.space = space or IdSpace(KADEMLIA_BITS)
        require_positive_int(bucket_size, "bucket_size")
        require_positive_int(alpha, "alpha")
        self.bucket_size = bucket_size
        self.alpha = alpha
        self.nodes: dict[int, KademliaNode] = {}
        self._alive: list[int] = []
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
        bucket_size: int = 8,
        alpha: int = 3,
    ) -> "KademliaNetwork":
        """Create a stabilized network of ``n`` nodes with random ids."""
        require_positive_int(n, "n")
        network = cls(space, bucket_size=bucket_size, alpha=alpha)
        rng = random.Random(seed)
        if n > network.space.size:
            raise ConfigurationError(f"cannot place {n} nodes in a {network.space.bits}-bit space")
        if network.space.bits <= 62:
            ids = rng.sample(range(network.space.size), n)
        else:
            # range() objects wider than ssize_t cannot be sampled;
            # rejection-sample instead (collisions are ~2**-100 events).
            chosen: set[int] = set()
            while len(chosen) < n:
                chosen.add(rng.randrange(network.space.size))
            ids = sorted(chosen)
        for node_id in ids:
            network.add_node(node_id)
        network.stabilize_all()
        return network

    def add_node(self, node_id: int) -> KademliaNode:
        """Add a brand-new node (not yet known to others)."""
        self.space.validate(node_id, "node id")
        if node_id in self.nodes:
            raise ConfigurationError(f"node {node_id} already exists")
        node = KademliaNode(node_id, self.space, self.bucket_size)
        self.nodes[node_id] = node
        insort(self._alive, node_id)
        self._rebuild_tables(node)
        return node

    def join_via(self, node_id: int, bootstrap: int) -> KademliaNode:
        """Protocol-faithful join (Maymounkov & Mazières §2.3): insert the
        bootstrap contact, run an iterative FIND_NODE on the own id, and
        populate the newcomer's buckets from every contact the lookup
        surfaced. Other nodes learn about the newcomer only via their
        later stabilization rounds."""
        self.space.validate(node_id, "node id")
        if node_id in self.nodes and self.nodes[node_id].alive:
            raise ConfigurationError(f"node {node_id} already exists")
        boot = self.nodes.get(bootstrap)
        if boot is None or not boot.alive:
            raise NodeAbsentError(f"bootstrap node {bootstrap} is not alive")

        existing = self.nodes.get(node_id)
        if existing is not None:
            # Keep the node unroutable while the join lookup runs.
            existing.alive = False
        answer = iterative_find_node(self, bootstrap, node_id, alpha=self.alpha)
        node = existing
        if node is None:
            node = KademliaNode(node_id, self.space, self.bucket_size)
            self.nodes[node_id] = node
        node.classes.clear()
        node.core.clear()
        node.auxiliary.clear()

        # Feed every surfaced contact through a fresh bucket tree, in the
        # order the lookup heard of them (bootstrap first).
        table = RoutingTable(node_id, self.space, self.bucket_size)
        for contact in [bootstrap, *answer.queried, *answer.found]:
            if self.nodes.get(contact) is not None and self.nodes[contact].alive:
                table.insert(contact)
        node.set_core(set(table.contacts()))

        node.alive = True
        insort(self._alive, node_id)
        return node

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> KademliaNode:
        """Fetch a node object by id (KeyError when unknown)."""
        return self.nodes[node_id]

    def alive_ids(self) -> list[int]:
        """Sorted ids of live nodes (a copy)."""
        return list(self._alive)

    def alive_count(self) -> int:
        return len(self._alive)

    def responsible(self, key: int) -> int:
        """The live node XOR-closest to ``key`` (unique: XOR is injective
        for a fixed key)."""
        if not self._alive:
            raise NodeAbsentError("network has no live nodes")
        return min(self._alive, key=key.__xor__)

    # ------------------------------------------------------------------
    # Verification hooks (read-only introspection)
    # ------------------------------------------------------------------
    def class_snapshot(self) -> dict[int, dict[int, frozenset[int]]]:
        """Per-live-node per-prefix-class contact sets, as installed now."""
        return {node_id: self.nodes[node_id].class_snapshot() for node_id in self._alive}

    def reference_core(self, node_id: int) -> frozenset[int]:
        """Ground-truth core contacts from the global view — what a
        stabilization round installs. Verification compares per-node state
        against this independent derivation."""
        return frozenset(self._bucket_core(node_id))

    def hop_distances(self, path: Iterable[int], key: int) -> list[int]:
        """XOR distance from each path node to ``key`` — the quantity
        Kademlia routing must strictly shrink on every hop."""
        return [node_id ^ key for node_id in path]

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        """Abruptly fail a node; others keep stale contacts to it."""
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
        """One node's maintenance round: rebuild the bucket contacts from
        the current population and drop dead auxiliaries (the ping process
        of Section III extended to auxiliary entries)."""
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
            core_neighbors=frozenset(node.core),
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
        record_access: bool = True,
        retry=None,
        faults=None,
        trace=None,
    ) -> KademliaLookupResult:
        """Route a query for ``key`` from ``source``; see :func:`route`.

        ``retry``/``faults`` forward to the router's fault-aware knobs
        (:class:`~repro.faults.retry.RetryPolicy`,
        :class:`~repro.faults.plane.FaultPlane`); ``trace`` attaches an
        observe-only :class:`~repro.obs.recorder.TraceRecorder`."""
        return route(
            self,
            source,
            key,
            record_access=record_access,
            retry=retry,
            faults=faults,
            trace=trace,
        )

    def find_node(
        self, source: int, key: int, alpha: int | None = None, count: int | None = None
    ) -> FindNodeResult:
        """Iterative α-parallel FIND_NODE: the ``count`` (default
        ``bucket_size``) XOR-closest nodes to ``key``; see
        :func:`repro.kademlia.routing.iterative_find_node`."""
        return iterative_find_node(
            self,
            source,
            key,
            alpha=alpha if alpha is not None else self.alpha,
            count=count,
        )

    def seed_frequencies(self, node_id: int, frequencies: dict[int, float]) -> None:
        """Pre-load a node's tracker with a destination distribution."""
        self.nodes[node_id].tracker = ExactFrequencyTable.from_weights(frequencies, exclude=node_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild_tables(self, node: KademliaNode) -> None:
        node.set_core(self._bucket_core(node.node_id))

    def _bucket_core(self, node_id: int) -> set[int]:
        """Offer every live id to a fresh bucket tree in ascending order
        (deterministic recency: higher ids read as fresher) and keep the
        survivors. Own-range buckets split rather than evict, so every
        distance class with live members keeps at least one contact — the
        property greedy XOR routing's termination proof rests on."""
        table = RoutingTable(node_id, self.space, self.bucket_size)
        for other in self._alive:
            if other != node_id:
                table.insert(other)
        return set(table.contacts())
