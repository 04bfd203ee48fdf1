"""A single Pastry peer: prefix routing table, leaf set, auxiliary pointers.

The routing table is organized into cells keyed by ``(row, digit)``: the
entries in cell ``(l, d)`` share exactly the first ``l`` digits with this
node and have digit ``d`` at position ``l`` (Section II-A). Core
maintenance keeps (at most) one entry per cell, but auxiliary neighbors
land in the cell their id belongs to, so a cell can offer several
candidates for the same prefix repair — the situation where FreePastry's
locality-aware choice matters (Section VI discussion of Figure 4).

The leaf set holds the ``leaf_radius`` numerically closest live nodes on
each side and both finishes deliveries and guarantees routing progress.
"""

from __future__ import annotations

from repro.core.frequency import ExactFrequencyTable
from repro.util.ids import IdSpace

__all__ = ["PastryNode"]


class PastryNode:
    """One Pastry peer.

    Parameters
    ----------
    node_id:
        Identifier in the circular id space.
    space:
        The identifier space.
    digit_bits:
        Bits per routing digit (1 = the paper's binary exposition).
    leaf_radius:
        Leaf-set entries maintained on each side.
    """

    __slots__ = (
        "node_id",
        "space",
        "digit_bits",
        "leaf_radius",
        "alive",
        "cells",
        "core",
        "auxiliary",
        "leaves",
        "tracker",
        "_leaf_cache",
    )

    def __init__(
        self,
        node_id: int,
        space: IdSpace,
        digit_bits: int = 1,
        leaf_radius: int = 8,
    ) -> None:
        self.node_id = space.validate(node_id, "node id")
        self.space = space
        self.digit_bits = digit_bits
        self.leaf_radius = leaf_radius
        self.alive = True
        #: (row, digit) -> set of neighbor ids usable for that prefix repair.
        self.cells: dict[tuple[int, int], set[int]] = {}
        self.core: set[int] = set()
        self.auxiliary: set[int] = set()
        self.leaves: set[int] = set()
        self.tracker = ExactFrequencyTable()
        #: Routing-layer cache of leaf-set geometry (see
        #: :func:`repro.pastry.routing._leaf_geometry`); any mutation of
        #: ``leaves`` must reset it to ``None``.
        self._leaf_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Cell bookkeeping
    # ------------------------------------------------------------------
    def cell_key(self, other: int) -> tuple[int, int]:
        """The (row, digit) cell another node's id belongs to."""
        space = self.space
        row = space.common_prefix_length(self.node_id, other) // self.digit_bits
        return row, space.digit_at(other, row, self.digit_bits)

    def _cell_of(self, other: int) -> tuple[int, int]:
        """Unchecked :meth:`cell_key` for a valid id other than the node's."""
        bits = self.space.bits
        digit_bits = self.digit_bits
        row = (bits - (self.node_id ^ other).bit_length()) // digit_bits
        high = bits - row * digit_bits
        low = high - digit_bits if high > digit_bits else 0
        return row, (other >> low) & ((1 << (high - low)) - 1)

    def _discard(self, key: tuple[int, int], other: int) -> None:
        bucket = self.cells.get(key)
        if bucket is not None:
            bucket.discard(other)
            if not bucket:
                del self.cells[key]

    def candidates_for(self, key: int) -> set[int]:
        """Neighbors that repair at least one digit of ``key``: the entries
        of the cell addressed by the key's first digit mismatch."""
        if key == self.node_id:
            return set()
        return self.cells.get(self.cell_key(key), set())

    # ------------------------------------------------------------------
    # Neighbor-set maintenance
    # ------------------------------------------------------------------
    def set_core(self, entries: set[int]) -> None:
        """Replace the core routing-table entries."""
        old = self.core
        self.core = {entry for entry in entries if entry != self.node_id}
        self._reconcile(old, self.core, self.leaves, self.auxiliary)

    def set_leaves(self, entries: set[int]) -> None:
        """Replace the leaf set. Leaf entries also count as routing
        candidates (Pastry consults both structures)."""
        old = self.leaves
        self.leaves = {entry for entry in entries if entry != self.node_id}
        self._leaf_cache = None
        self._reconcile(old, self.leaves, self.core, self.auxiliary)

    def set_auxiliary(self, pointers: set[int]) -> None:
        """Install a new auxiliary set (selection output)."""
        old = self.auxiliary
        self.auxiliary = {p for p in pointers if p != self.node_id}
        self._reconcile(old, self.auxiliary, self.core, self.leaves)

    def _reconcile(self, old: set[int], new: set[int], other: set[int], third: set[int]) -> None:
        """Update ``cells`` after one neighbor set went from ``old`` to
        ``new``: drop ids no set holds any more, then file the new ones in
        ``new``'s order. Ids held throughout already sit in their cell, so
        ``cells`` ends exactly as a full re-add of ``new`` would leave it."""
        cell_of = self._cell_of
        for gone in old - new - other - third:
            self._discard(cell_of(gone), gone)
        cells = self.cells
        for entry in new:
            if entry not in old and entry not in other and entry not in third:
                cells.setdefault(cell_of(entry), set()).add(entry)

    def evict(self, dead_id: int) -> None:
        """Drop a neighbor discovered dead via a lookup timeout."""
        self.core.discard(dead_id)
        self.auxiliary.discard(dead_id)
        if dead_id in self.leaves:
            self.leaves.discard(dead_id)
            self._leaf_cache = None
        self._discard(self.cell_key(dead_id), dead_id)

    def neighbor_ids(self) -> set[int]:
        """Every currently-known neighbor."""
        return self.core | self.auxiliary | self.leaves

    def leaf_snapshot(self) -> frozenset[int]:
        """Read-only copy of the leaf set (verification hook)."""
        return frozenset(self.leaves)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail abruptly, losing all volatile state."""
        self.alive = False
        self.cells.clear()
        self.core.clear()
        self.auxiliary.clear()
        self.leaves.clear()
        self._leaf_cache = None
        self.tracker = ExactFrequencyTable()

    # ------------------------------------------------------------------
    # Frequency tracking
    # ------------------------------------------------------------------
    def record_access(self, destination: int) -> None:
        """Note the node that held a queried item (Section III)."""
        if destination != self.node_id:
            self.tracker.observe(destination)

    def frequency_snapshot(self, limit: int | None = None) -> dict[int, float]:
        """Observed per-peer frequencies, optionally top-``limit`` only."""
        snapshot = self.tracker.snapshot(limit)
        snapshot.pop(self.node_id, None)
        return snapshot
