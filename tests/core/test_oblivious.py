"""Tests for the frequency-oblivious baselines."""

import random

import pytest

from repro.core.cost import chord_cost, pastry_cost
from repro.core.oblivious import (
    _class_quotas,
    select_chord_oblivious,
    select_pastry_oblivious,
    select_uniform_random,
)
from repro.util.errors import IdSpaceError
from tests.helpers import problem_from_lists, random_problem


class TestClassQuotas:
    """Pin the per-class budget split: the remainder of ``k // classes``
    must be distributed, not silently dropped (the old ``max(1, k //
    class_count)`` handed it to the uniform top-up)."""

    def test_remainder_spread_over_first_classes(self):
        assert _class_quotas(7, 3) == [3, 2, 2]
        assert _class_quotas(11, 4) == [3, 3, 3, 2]

    def test_exact_division_is_flat(self):
        assert _class_quotas(6, 3) == [2, 2, 2]

    def test_budget_below_one_per_class_degenerates_to_ones(self):
        # The caller's running ``k - len(chosen)`` cap stops after k draws.
        assert _class_quotas(2, 5) == [1, 1, 1, 1, 1]

    def test_quotas_sum_to_k_when_base_positive(self):
        for k in range(3, 30):
            for classes in range(1, k + 1):
                assert sum(_class_quotas(k, classes)) == k

    def test_no_classes(self):
        assert _class_quotas(4, 0) == []

    def test_chord_selection_honors_quotas_end_to_end(self):
        # Four candidates in each of three finger ranges, k = 7: the
        # far-to-near visit takes 3 from the farthest range, 2 and 2 from
        # the nearer two — no remainder leaks to the uniform top-up.
        weights = {p: 1.0 for p in (300, 301, 302, 303, 150, 151, 152, 153, 70, 71, 72, 73)}
        problem = problem_from_lists(10, 0, weights, [], k=7)
        result = select_chord_oblivious(problem, random.Random(2))
        counts = {
            bucket: sum(1 for p in result.auxiliary if p.bit_length() - 1 == bucket)
            for bucket in (8, 7, 6)
        }
        assert counts == {8: 3, 7: 2, 6: 2}

    def test_pastry_selection_honors_quotas_end_to_end(self):
        # Four candidates in each of three shared-prefix classes with
        # source 0; short prefixes are visited first and get the remainder.
        weights = {p: 1.0 for p in (128, 129, 130, 131, 64, 65, 66, 67, 32, 33, 34, 35)}
        problem = problem_from_lists(8, 0, weights, [], k=7)
        result = select_pastry_oblivious(problem, random.Random(2))
        counts = {
            shared: sum(
                1
                for p in result.auxiliary
                if problem.space.common_prefix_length(0, p) == shared
            )
            for shared in (0, 1, 2)
        }
        assert counts == {0: 3, 1: 2, 2: 2}


class TestChordOblivious:
    def test_budget_spent_when_candidates_allow(self):
        rng = random.Random(0)
        problem = random_problem(rng, bits=10, peers=60, cores=4, k=8)
        result = select_chord_oblivious(problem, random.Random(1))
        assert len(result.auxiliary) == 8
        assert result.auxiliary <= problem.candidates

    def test_deterministic_given_rng(self):
        rng = random.Random(0)
        problem = random_problem(rng, bits=10, peers=40, cores=2, k=6)
        a = select_chord_oblivious(problem, random.Random(9))
        b = select_chord_oblivious(problem, random.Random(9))
        assert a.auxiliary == b.auxiliary

    def test_spreads_over_distance_ranges(self):
        # Plant one candidate in each of several finger ranges.
        space_bits = 10
        weights = {2**i + 1: 1.0 for i in range(2, 9)}
        problem = problem_from_lists(space_bits, 0, weights, [], k=len(weights))
        result = select_chord_oblivious(problem, random.Random(3))
        assert result.auxiliary == set(weights)

    def test_cost_is_reported_correctly(self):
        rng = random.Random(4)
        problem = random_problem(rng, bits=8, peers=20, cores=2, k=4)
        result = select_chord_oblivious(problem, random.Random(5))
        expected = chord_cost(
            problem.space,
            problem.source,
            problem.frequencies,
            problem.core_neighbors,
            result.auxiliary,
        )
        assert result.cost == pytest.approx(expected)

    def test_small_candidate_pool(self):
        problem = problem_from_lists(8, 0, {5: 1.0}, [], k=4)
        result = select_chord_oblivious(problem, random.Random(0))
        assert result.auxiliary == {5}


class TestPastryOblivious:
    def test_budget_spent(self):
        rng = random.Random(1)
        problem = random_problem(rng, bits=10, peers=60, cores=4, k=8)
        result = select_pastry_oblivious(problem, random.Random(2))
        assert len(result.auxiliary) == 8
        assert result.auxiliary <= problem.candidates

    def test_spreads_over_prefix_classes(self):
        # Candidates at every shared-prefix length with source 0.
        weights = {1 << i: 1.0 for i in range(8)}
        problem = problem_from_lists(8, 0, weights, [], k=8)
        result = select_pastry_oblivious(problem, random.Random(3))
        assert result.auxiliary == set(weights)

    @pytest.mark.parametrize("bad", [-1, 256, 2.5])
    def test_rejects_bad_pool_ids_like_common_prefix_length(self, bad):
        problem = problem_from_lists(8, 0, {5: 1.0}, [], k=2)
        with pytest.raises(IdSpaceError) as excinfo:
            select_pastry_oblivious(problem, random.Random(0), pool=[3, bad, 7])
        assert str(excinfo.value) == f"id b {bad!r} outside [0, 2**8)"

    def test_bool_pool_entry_passes_as_before(self):
        problem = problem_from_lists(8, 0, {5: 1.0}, [], k=3)
        result = select_pastry_oblivious(problem, random.Random(0), pool=[True, 5, 9])
        assert result.auxiliary == {True, 5, 9}

    def test_cost_is_reported_correctly(self):
        rng = random.Random(5)
        problem = random_problem(rng, bits=8, peers=20, cores=2, k=4)
        result = select_pastry_oblivious(problem, random.Random(6))
        expected = pastry_cost(
            problem.space, problem.frequencies, problem.core_neighbors, result.auxiliary
        )
        assert result.cost == pytest.approx(expected)


class TestUniformRandom:
    def test_respects_budget_and_candidates(self):
        rng = random.Random(2)
        problem = random_problem(rng, bits=10, peers=30, cores=3, k=5)
        for overlay in ("pastry", "chord"):
            result = select_uniform_random(problem, random.Random(7), overlay)
            assert len(result.auxiliary) == 5
            assert result.auxiliary <= problem.candidates
