"""Unit tests for the frequency trackers (exact, Space-Saving, Lossy Counting)."""

import heapq
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.frequency import ExactFrequencyTable, LossyCountingSketch, SpaceSavingSketch, _top_items
from repro.util.errors import ConfigurationError


class TestExactFrequencyTable:
    def test_counts_observations(self):
        table = ExactFrequencyTable()
        table.observe(1)
        table.observe(1)
        table.observe(2, weight=3.0)
        assert table.frequency(1) == 2.0
        assert table.frequency(2) == 3.0
        assert table.frequency(99) == 0.0
        assert table.total == 5.0
        assert len(table) == 2

    def test_observe_many(self):
        table = ExactFrequencyTable()
        table.observe_many([5, 5, 7])
        assert table.frequency(5) == 2.0
        assert table.frequency(7) == 1.0

    def test_sliding_window_evicts(self):
        table = ExactFrequencyTable(window=3)
        for peer in [1, 2, 3, 4]:
            table.observe(peer)
        assert table.frequency(1) == 0.0  # fell out of the window
        assert table.frequency(4) == 1.0
        assert table.total == 3.0

    def test_window_keeps_repeats(self):
        table = ExactFrequencyTable(window=3)
        for peer in [1, 1, 1, 1]:
            table.observe(peer)
        assert table.frequency(1) == 3.0

    def test_forget(self):
        table = ExactFrequencyTable(window=10)
        table.observe_many([1, 2, 1])
        table.forget(1)
        assert table.frequency(1) == 0.0
        assert table.total == 1.0

    def test_snapshot_limit_prefers_heavy_hitters(self):
        table = ExactFrequencyTable()
        table.observe(1, weight=10)
        table.observe(2, weight=5)
        table.observe(3, weight=1)
        assert set(table.snapshot(limit=2)) == {1, 2}
        assert table.snapshot() == {1: 10.0, 2: 5.0, 3: 1.0}

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            ExactFrequencyTable().observe(1, weight=-1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            ExactFrequencyTable(window=0)


class TestSpaceSaving:
    def test_tracks_within_capacity_exactly(self):
        sketch = SpaceSavingSketch(capacity=4)
        for peer in [1, 1, 2, 3]:
            sketch.observe(peer)
        assert sketch.frequency(1) == 2.0
        assert sketch.error_bound(1) == 0.0

    def test_eviction_inherits_floor(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.observe(1)
        sketch.observe(2)
        sketch.observe(3)  # evicts the minimum (deterministically peer 1)
        assert len(sketch) == 2
        assert sketch.frequency(3) == 2.0  # floor 1 + its own observation
        assert sketch.error_bound(3) == 1.0

    def test_overestimate_invariant(self):
        """Space-Saving never under-counts and over-counts by <= total/capacity."""
        rng = random.Random(0)
        stream = [rng.randint(0, 30) for _ in range(2000)]
        truth = {}
        for peer in stream:
            truth[peer] = truth.get(peer, 0) + 1
        sketch = SpaceSavingSketch(capacity=10)
        for peer in stream:
            sketch.observe(peer)
        for peer, estimate in sketch.snapshot().items():
            assert estimate >= truth.get(peer, 0)
            assert estimate - truth.get(peer, 0) <= len(stream) / 10

    def test_heavy_hitter_survives(self):
        """A peer holding >1/capacity of the stream is always monitored."""
        sketch = SpaceSavingSketch(capacity=5)
        rng = random.Random(1)
        for _ in range(1000):
            sketch.observe(777 if rng.random() < 0.5 else rng.randint(0, 100))
        assert sketch.frequency(777) > 0

    def test_guaranteed_top_orders_by_estimate(self):
        sketch = SpaceSavingSketch(capacity=4)
        for __ in range(50):
            sketch.observe(1)
        for __ in range(10):
            sketch.observe(2)
        sketch.observe(3)
        assert sketch.guaranteed_top()[0] == 1

    def test_forget(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.observe(1)
        sketch.forget(1)
        assert sketch.frequency(1) == 0.0


class TestLossyCounting:
    def test_exact_until_first_prune(self):
        sketch = LossyCountingSketch(epsilon=0.1)  # bucket width 10
        for peer in [1, 1, 2]:
            sketch.observe(peer)
        assert sketch.frequency(1) == 2.0
        assert sketch.frequency(2) == 1.0

    def test_prunes_rare_items(self):
        sketch = LossyCountingSketch(epsilon=0.25)  # bucket width 4
        for peer in [1, 2, 3, 4, 5, 6, 7, 8]:
            sketch.observe(peer)
        # Singletons from the first bucket are pruned at its boundary.
        assert sketch.frequency(1) == 0.0

    def test_undercount_bounded(self):
        rng = random.Random(2)
        stream = [rng.randint(0, 20) for _ in range(3000)]
        truth = {}
        for peer in stream:
            truth[peer] = truth.get(peer, 0) + 1
        epsilon = 0.01
        sketch = LossyCountingSketch(epsilon=epsilon)
        for peer in stream:
            sketch.observe(peer)
        for peer, count in truth.items():
            estimate = sketch.frequency(peer)
            assert estimate <= count
            assert count - estimate <= epsilon * len(stream)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ConfigurationError):
            LossyCountingSketch(epsilon=bad)


@given(st.lists(st.integers(0, 15), min_size=1, max_size=300))
def test_trackers_agree_on_small_streams(stream):
    """With ample capacity all three trackers report the exact counts."""
    exact = ExactFrequencyTable()
    saving = SpaceSavingSketch(capacity=16)
    lossy = LossyCountingSketch(epsilon=0.001)
    for peer in stream:
        exact.observe(peer)
        saving.observe(peer)
        lossy.observe(peer)
    assert exact.snapshot() == saving.snapshot() == lossy.snapshot()


class TestTopItems:
    """``_top_items`` sorts instead of keeping a heap; it must return what
    ``heapq.nlargest`` returns, item for item and in order."""

    @staticmethod
    def heap_top(estimates, limit):
        return list(heapq.nlargest(limit, estimates.items(), key=lambda kv: (kv[1], -kv[0])))

    @given(
        st.dictionaries(
            st.integers(-50, 10**12),
            st.one_of(st.integers(0, 3).map(float), st.integers(0, 3), st.floats(0, 1e6), st.just(float("nan"))),
            max_size=40,
        ),
        st.integers(-2, 2),
    )
    def test_matches_nlargest(self, estimates, offset):
        for limit in (-1, 0, 1, len(estimates) + offset, len(estimates) + 1):
            got = list(_top_items(estimates, limit).items())
            if len(estimates) <= limit:
                assert got == list(estimates.items())  # no cut: kept whole, in order
            else:
                assert got == self.heap_top(estimates, limit)

    def test_ties_break_on_lower_id(self):
        estimates = {9: 2.0, 3: 2.0, 5: 1.0, 7: 2.0}
        assert list(_top_items(estimates, 2)) == [3, 7]
        assert _top_items(estimates, -1) == {}
        assert _top_items(estimates, None) == estimates
