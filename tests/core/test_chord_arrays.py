"""The array front end of whole-ring Chord recomputes against the per-node path.

``ChordRing._selection_arrays`` builds a node's eq.-1 inputs straight from
its tracker as gap-sorted arrays; ``select_chord_oblivious_arrays`` draws
the frequency-oblivious baseline for a block of nodes; and
``ExactFrequencyTable.from_weights`` seeds a tracker in one pass. Each must
reproduce its per-node oracle exactly: the fields ``_normalize`` derives
from ``_selection_problem``, the pointer sets, the cost bits, the RNG state
and the errors a bad tracker raises.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.ring import ChordRing, oblivious_policy, optimal_policy
from repro.core import chord_selection
from repro.core.chord_selection import select_chord, select_chord_arrays
from repro.core.frequency import ExactFrequencyTable
from repro.core.oblivious import select_chord_oblivious, select_chord_oblivious_arrays
from repro.util.ids import IdSpace

_FIELDS = ("bits", "gaps", "weights", "ids", "core_gaps", "candidate_flags", "bounds", "source")

_WEIGHTS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.integers(0, 3).map(float),  # ties straddling any top-L cut
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def rings(draw, max_nodes=24):
    """A stabilized ring, one live node of it, and a tracker for that node:
    peers drawn from the whole space (live or not), tied and zero weights,
    sometimes the owner itself."""
    bits = draw(st.sampled_from([4, 5, 8, 16, 32, 53]))
    n = draw(st.integers(2, min(max_nodes, 1 << bits)))
    ring = ChordRing.build(n, space=IdSpace(bits), seed=draw(st.integers(0, 2**16)))
    ids = ring.alive_ids()
    node_id = draw(st.sampled_from(ids))
    peers = draw(
        st.lists(st.integers(0, (1 << bits) - 1), max_size=min(60, 1 << bits), unique=True)
    )
    if draw(st.booleans()):
        peers.append(node_id)  # the owner in its own tracker
    tracker = ExactFrequencyTable()
    for peer in dict.fromkeys(peers):
        tracker.observe(peer, draw(_WEIGHTS))
    ring.node(node_id).tracker = tracker
    size = len(tracker)
    limit = draw(st.one_of(st.none(), st.integers(0, size + 2), st.just(max(size - 1, 0))))
    return ring, node_id, limit


def assert_same_fields(inst, oracle):
    listed = chord_selection._listed(inst)
    for name in _FIELDS:
        assert getattr(listed, name) == getattr(oracle, name), name
    for name in ("gaps", "weights", "ids", "core_gaps", "candidate_flags"):
        value = getattr(listed, name)
        assert all(type(item) is type(ref) for item, ref in zip(value, getattr(oracle, name))), name
    # ``order`` maps each gap-sorted entry back to its place in the snapshot.
    snapshot = np.empty_like(inst.ids)
    snapshot[inst.order] = inst.ids
    return snapshot.tolist()


class TestArrayBuilder:
    @settings(max_examples=200, deadline=None)
    @given(rings(), st.integers(0, 12))
    def test_equals_normalized_problem(self, case, k):
        ring, node_id, limit = case
        problem = ring._selection_problem(node_id, k, limit)
        inst = ring._selection_arrays(node_id, k, limit)
        assert inst.gaps.dtype == inst.ids.dtype == inst.core_gaps.dtype == np.int64
        assert inst.weights.dtype == np.float64 and inst.candidate_flags.dtype == bool
        order = assert_same_fields(inst, chord_selection._normalize(problem))
        assert order == list(problem.frequencies)

    @settings(max_examples=120, deadline=None)
    @given(rings(max_nodes=40), st.integers(0, 12))
    def test_bulk_optimal_equals_select_chord(self, case, k):
        ring, __, limit = case
        insts = [ring._selection_arrays(node, k, limit) for node in ring.alive_ids()]
        results = select_chord_arrays(insts, k)
        for node, result in zip(ring.alive_ids(), results):
            want = select_chord(ring._selection_problem(node, k, limit))
            assert result.auxiliary == want.auxiliary
            assert all(type(peer) is int for peer in result.auxiliary)
            assert result.cost.hex() == want.cost.hex()
            assert result.algorithm == want.algorithm

    def test_small_nodes_take_the_dp(self):
        ring = ChordRing.build(40, space=IdSpace(16), seed=3)
        ids = ring.alive_ids()
        for count, node_id in zip((32, 33), ids):
            ring.seed_frequencies(node_id, {peer: 1.0 + peer % 3 for peer in ids[-count:]})
        insts = [ring._selection_arrays(node_id, 4, None) for node_id in ids[:2]]
        assert [inst.n for inst in insts] == [32, 33]
        labels = [result.algorithm for result in select_chord_arrays(insts, 4)]
        assert labels == ["chord-dp", "chord-fast"]


class TestBadTrackers:
    @pytest.mark.parametrize(
        "bad",
        [
            {"weight": -1.0},
            {"weight": -0.5},
            {"weight": math.nan},
            {"weight": math.inf},
            {"peer": 1 << 16},
            {"peer": -3},
            {"peer": 1 << 70},
            {"peer": 7.0},
            {"peer": True},
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("limit", [None, 200, 5, 0])
    def test_same_error_on_both_paths(self, bad, limit):
        ring = ChordRing.build(24, space=IdSpace(16), seed=1)
        node_id = ring.alive_ids()[3]
        rng = random.Random(7)
        counts = Counter({peer: float(rng.randint(1, 4)) for peer in rng.sample(range(1 << 16), 12)})
        counts.pop(node_id, None)
        counts[bad.get("peer", 4242)] = bad.get("weight", 2.0)
        tracker = ExactFrequencyTable()
        tracker._counts = counts
        ring.node(node_id).tracker = tracker
        try:
            want = ring._selection_problem(node_id, 3, limit)
        except Exception as error:  # noqa: BLE001 - the type is the contract
            with pytest.raises(type(error)) as caught:
                ring._selection_arrays(node_id, 3, limit)
            assert type(caught.value) is type(error)
            assert str(caught.value) == str(error)
        else:
            inst = ring._selection_arrays(node_id, 3, limit)
            assert_same_fields(inst, chord_selection._normalize(want))

    def test_source_in_core_or_peers_rejected(self):
        space = IdSpace(8)
        peers = np.array([3, 9], dtype=np.int64)
        weights = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="source node itself"):
            chord_selection.chord_instance(space, 9, peers, weights, {4})
        with pytest.raises(ValueError, match="source node itself"):
            chord_selection.chord_instance(space, 5, peers, weights, {5})

    def test_negative_k_rejected_first(self):
        ring = ChordRing.build(8, space=IdSpace(8), seed=0)
        with pytest.raises(ValueError, match="k must be"):
            ring._selection_arrays(ring.alive_ids()[0], -1, None)


@st.composite
def oblivious_rings(draw):
    bits = draw(st.sampled_from([5, 6, 8, 16, 32]))
    n = draw(st.integers(2, min(48, 1 << bits)))
    ring = ChordRing.build(n, space=IdSpace(bits), seed=draw(st.integers(0, 2**16)))
    draw_rng = random.Random(draw(st.integers(0, 2**16)))
    ids = ring.alive_ids()
    for node_id in ids:
        others = [other for other in ids if other != node_id]
        peers = draw_rng.sample(others, draw_rng.randint(0, len(others)))
        ring.seed_frequencies(node_id, {peer: float(draw_rng.randint(0, 3)) for peer in peers})
    # Crash a few nodes without stabilizing: stale cores, a smaller pool.
    for victim in draw_rng.sample(ids, draw(st.integers(0, max(0, n // 4)))):
        if ring.alive_count() > 2:
            ring.crash(victim)
    return ring


class TestBulkOblivious:
    @settings(max_examples=150, deadline=None)
    @given(
        oblivious_rings(),
        st.integers(0, 60),
        st.one_of(st.none(), st.integers(0, 40)),
        st.integers(0, 2**32),
    )
    def test_draw_for_draw(self, ring, k, limit, seed):
        alive = ring.alive_ids()
        insts = [ring._selection_arrays(node, k, limit) for node in alive]
        bulk_rng, loop_rng = random.Random(seed), random.Random(seed)
        results = select_chord_oblivious_arrays(insts, k, bulk_rng, ring.space, alive)
        for node, result in zip(alive, results):
            want = select_chord_oblivious(ring._selection_problem(node, k, limit), loop_rng, pool=alive)
            assert result.auxiliary == want.auxiliary
            assert all(type(peer) is int for peer in result.auxiliary)
            assert result.cost.hex() == want.cost.hex()
            assert result.algorithm == want.algorithm
        assert bulk_rng.getstate() == loop_rng.getstate()

    @pytest.mark.parametrize("k", [0, 7, 10, 31, 5000])
    def test_quota_remainders_and_the_fill(self, k):
        """k = 0, k not divisible by the class count, k above the
        candidate count (the fill path tops up from every leftover)."""
        ring = ChordRing.build(300, space=IdSpace(32), seed=4)
        alive = ring.alive_ids()
        draw = random.Random(4)
        for node_id in alive[:40]:
            # Non-integer weights, over and under the vectorised-cost size:
            # the cost's bits depend on the order it is summed in.
            peers = draw.sample([other for other in alive if other != node_id], draw.choice([40, 150]))
            ring.seed_frequencies(node_id, {peer: draw.paretovariate(1.2) for peer in peers})
        insts = [ring._selection_arrays(node, k, 120) for node in alive[:40]]
        bulk_rng, loop_rng = random.Random(k), random.Random(k)
        results = select_chord_oblivious_arrays(insts, k, bulk_rng, ring.space, alive)
        for node, result in zip(alive, results):
            want = select_chord_oblivious(ring._selection_problem(node, k, 120), loop_rng, pool=alive)
            assert result.auxiliary == want.auxiliary
            assert result.cost.hex() == want.cost.hex()
        assert bulk_rng.getstate() == loop_rng.getstate()
        if k == 5000:
            assert all(len(result.auxiliary) > 250 for result in results)


class TestWholeRing:
    @pytest.mark.parametrize("policy", [optimal_policy, oblivious_policy], ids=lambda p: p.__name__)
    @pytest.mark.parametrize("limit", [None, 40])
    def test_recompute_all_equals_the_loop(self, policy, limit):
        space = IdSpace(32)
        bulk = ChordRing.build(200, space=space, seed=5)
        loop = ChordRing.build(200, space=space, seed=5)
        draw = random.Random(5)
        ids = bulk.alive_ids()
        for node_id in ids:
            peers = draw.sample([other for other in ids if other != node_id], draw.randint(0, 90))
            weights = {peer: float(draw.randint(1, 4)) for peer in peers}
            bulk.seed_frequencies(node_id, weights)
            loop.seed_frequencies(node_id, weights)
        bulk_rng, loop_rng = random.Random(9), random.Random(9)
        bulk.recompute_all_auxiliary(8, policy, bulk_rng, limit)
        for node_id in ids:
            loop.recompute_auxiliary(node_id, 8, policy, loop_rng, limit)
        for node_id in ids:
            assert bulk.node(node_id).auxiliary == loop.node(node_id).auxiliary
            assert bulk.node(node_id).table.entries() == loop.node(node_id).table.entries()
        assert bulk_rng.getstate() == loop_rng.getstate()


def observe_loop(weights, exclude):
    table = ExactFrequencyTable()
    for peer, weight in weights.items():
        if peer != exclude and weight > 0:
            table.observe(peer, weight)
    return table


class TestFromWeights:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 2**20),
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=False, width=64),
                st.integers(-5, 10),
                st.floats(min_value=0.0, max_value=1e-300),
            ),
            max_size=80,
        ),
        st.one_of(st.none(), st.integers(0, 2**20)),
    )
    def test_equals_the_observe_loop(self, weights, exclude):
        if weights and exclude is not None and exclude % 3 == 0:
            exclude = next(iter(weights))  # the owner among the weights
        got = ExactFrequencyTable.from_weights(weights, exclude=exclude)
        want = observe_loop(weights, exclude)
        assert list(got._counts.items()) == list(want._counts.items())
        assert [type(value) for value in got._counts.values()] == [
            type(value) for value in want._counts.values()
        ]
        assert type(got.total) is type(want.total)
        assert float(got.total).hex() == float(want.total).hex()
        assert got.snapshot() == want.snapshot()

    def test_total_is_added_left_to_right(self):
        weights = {0: 1e16, 1: 1.0, 2: 1.0, 3: -1e16 + 1e16 + 1.0}
        table = ExactFrequencyTable.from_weights(weights)
        running = 0.0
        for weight in weights.values():
            running += weight
        assert table.total.hex() == running.hex()


class TestSnapshotArrays:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 2**40), _WEIGHTS, max_size=60),
        st.one_of(st.none(), st.integers(-1, 70)),
    )
    def test_equals_snapshot(self, counts, limit):
        table = ExactFrequencyTable()
        table._counts = Counter(counts)
        peers, weights = table.snapshot_arrays(limit)
        snapshot = table.snapshot(limit)
        assert peers.tolist() == list(snapshot)
        assert weights.tolist() == list(snapshot.values())

    def test_nan_at_a_cut_falls_back(self):
        table = ExactFrequencyTable()
        table._counts = Counter({1: 2.0, 2: math.nan, 3: 1.0})
        assert table.snapshot_arrays(2) is None
        peers, __ = table.snapshot_arrays(None)
        assert peers.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("key", [2.0, True, 1 << 64])
    def test_unusual_keys_fall_back(self, key):
        table = ExactFrequencyTable()
        table._counts = Counter({5: 1.0, key: 1.0})
        assert table.snapshot_arrays(None) is None
