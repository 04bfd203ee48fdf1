"""Unit tests for PastryNode cell bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.node import PastryNode
from repro.util.ids import IdSpace


def make(node_id=0b00000000, digit_bits=1):
    return PastryNode(node_id, IdSpace(8), digit_bits=digit_bits)


class TestCellKeys:
    def test_cell_key_binary(self):
        node = make(0b00000000)
        # 0b10000000 differs at bit 0 -> row 0, digit 1.
        assert node.cell_key(0b10000000) == (0, 1)
        # 0b00010000 shares 3 bits -> row 3, digit 1.
        assert node.cell_key(0b00010000) == (3, 1)

    def test_cell_key_multibit_digits(self):
        node = make(0b00000000, digit_bits=2)
        # 0b01100000: lcp 1 bit -> row 0; digit 0 of other = 0b01.
        assert node.cell_key(0b01100000) == (0, 0b01)
        # 0b00110000: lcp 2 bits -> row 1; digit 1 of other = 0b11.
        assert node.cell_key(0b00110000) == (1, 0b11)

    def test_candidates_for_matches_cell(self):
        node = make(0b00000000)
        node.set_core({0b10000000, 0b00010000})
        # Key 0b10101010: first mismatch at bit 0, digit 1.
        assert node.candidates_for(0b10101010) == {0b10000000}
        # Key equal to own id: nothing to repair.
        assert node.candidates_for(0b00000000) == set()


class TestMembershipOverlap:
    def test_entry_in_two_roles_survives_single_removal(self):
        node = make()
        node.set_core({0b10000000})
        node.set_leaves({0b10000000, 0b00000001})
        # Dropping it from the core must keep it as a leaf candidate.
        node.set_core(set())
        assert 0b10000000 in node.candidates_for(0b10101010)
        assert 0b10000000 in node.leaves

    def test_aux_then_core_overlap(self):
        node = make()
        node.set_auxiliary({0b01000000})
        node.set_core({0b01000000})
        node.set_auxiliary(set())
        assert 0b01000000 in node.candidates_for(0b01111111)

    def test_replacing_aux_removes_old_cells(self):
        node = make()
        node.set_auxiliary({0b01000000})
        node.set_auxiliary({0b00100000})
        assert node.candidates_for(0b01111111) == set()
        assert node.candidates_for(0b00111111) == {0b00100000}

    def test_evict_clears_everywhere(self):
        node = make()
        node.set_core({0b10000000})
        node.set_leaves({0b10000000})
        node.set_auxiliary({0b10000000})
        node.evict(0b10000000)
        assert node.neighbor_ids() == set()
        assert node.candidates_for(0b11111111) == set()

    def test_self_never_stored(self):
        node = make(5)
        node.set_core({5})
        node.set_leaves({5})
        node.set_auxiliary({5})
        assert node.neighbor_ids() == set()


class TestLifecycle:
    def test_crash_wipes_state(self):
        node = make()
        node.set_core({0b10000000})
        node.record_access(7)
        node.crash()
        assert not node.alive
        assert node.neighbor_ids() == set()
        assert node.frequency_snapshot() == {}

    def test_snapshot_excludes_self(self):
        node = make(9)
        node.tracker.observe(9)
        node.tracker.observe(3)
        assert node.frequency_snapshot() == {3: 1.0}


class _FullReAddNode:
    """Reference cell bookkeeping: every ``set_*`` re-files the whole new
    set through the checked :meth:`PastryNode.cell_key`."""

    def __init__(self, node: PastryNode) -> None:
        self.node_id = node.node_id
        self.cell_key = node.cell_key
        self.cells: dict = {}
        self.core: set = set()
        self.leaves: set = set()
        self.auxiliary: set = set()

    def _add(self, other):
        self.cells.setdefault(self.cell_key(other), set()).add(other)

    def _remove(self, other):
        key = self.cell_key(other)
        bucket = self.cells.get(key)
        if bucket is not None:
            bucket.discard(other)
            if not bucket:
                del self.cells[key]

    def set(self, role, entries):
        others = [getattr(self, name) for name in ("core", "leaves", "auxiliary") if name != role]
        for old in getattr(self, role) - entries - others[0] - others[1]:
            self._remove(old)
        setattr(self, role, {entry for entry in entries if entry != self.node_id})
        for entry in getattr(self, role):
            self._add(entry)

    def evict(self, dead):
        for name in ("core", "leaves", "auxiliary"):
            getattr(self, name).discard(dead)
        self._remove(dead)

    def crash(self):
        self.cells.clear()
        self.core, self.leaves, self.auxiliary = set(), set(), set()


@st.composite
def bookkeeping_runs(draw):
    bits = draw(st.sampled_from([5, 6, 7, 8, 10]))
    digit_bits = draw(st.sampled_from([1, 2, 3, 4]))
    ids = st.integers(0, (1 << bits) - 1)
    node_id = draw(ids)
    pool = draw(st.lists(ids, min_size=1, max_size=24, unique=True))
    op = st.one_of(
        st.tuples(st.sampled_from(["core", "leaves", "auxiliary"]), st.sets(st.sampled_from(pool), max_size=12)),
        st.tuples(st.just("evict"), st.sampled_from(pool)),
        st.tuples(st.just("crash"), st.none()),
    )
    return bits, digit_bits, node_id, draw(st.lists(op, min_size=1, max_size=30))


class TestIncrementalBookkeeping:
    @settings(max_examples=300, deadline=None)
    @given(bookkeeping_runs())
    def test_cells_match_full_rebuild(self, run):
        bits, digit_bits, node_id, ops = run
        node = PastryNode(node_id, IdSpace(bits), digit_bits=digit_bits)
        reference = _FullReAddNode(node)
        setters = {"core": node.set_core, "leaves": node.set_leaves, "auxiliary": node.set_auxiliary}
        for name, arg in ops:
            if name == "evict":
                if arg == node_id:
                    continue  # a node never holds, so never evicts, itself
                node.evict(arg)
                reference.evict(arg)
            elif name == "crash":
                node.crash()
                reference.crash()
            else:
                setters[name](set(arg))
                reference.set(name, set(arg))
            # Contents: exactly the cells of core ∪ leaves ∪ auxiliary.
            rebuilt: dict = {}
            for other in sorted(node.neighbor_ids()):
                rebuilt.setdefault(node.cell_key(other), set()).add(other)
            assert node.cells == rebuilt
            # Key order and each bucket's iteration order: as a full re-add.
            assert [(key, list(bucket)) for key, bucket in node.cells.items()] == [
                (key, list(bucket)) for key, bucket in reference.cells.items()
            ]
            assert (node.core, node.leaves, node.auxiliary) == (
                reference.core,
                reference.leaves,
                reference.auxiliary,
            )
