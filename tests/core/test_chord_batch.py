"""The block solver ``select_chord_many`` against the recursive oracle.

The level-synchronous solver must return, problem for problem, exactly
what the recursive divide-and-conquer returns on that problem alone: the
same auxiliary set, a bit-identical cost and the same label — whatever
else shares the block and however the block is cut or ordered.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.ring import ChordRing, optimal_policy
from repro.core import chord_selection
from repro.core.chord_selection import (
    select_chord,
    select_chord_block,
    select_chord_fast,
    select_chord_many,
    solver_blocks,
)
from repro.core.types import SelectionProblem
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from tests.helpers import random_problem


def recursive(problem):
    """The oracle: the recursive layer solver on ``problem`` alone."""
    inst = chord_selection._normalize(problem)
    chosen, cost = chord_selection._solve_recursive(inst, problem.k)
    return chord_selection._result(problem, inst, chosen, cost, "chord-fast")


def assert_identical(got, want):
    assert got.auxiliary == want.auxiliary
    assert got.cost.hex() == want.cost.hex()
    assert got.algorithm == want.algorithm


@contextmanager
def always_stacked():
    """Stack every block, however few peers it holds."""
    with mock.patch.object(chord_selection, "_STACK_MIN_PEERS", 0):
        yield


_WEIGHTS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.integers(0, 3).map(float),  # ties everywhere
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw, bits=st.sampled_from([4, 8, 16, 32, 53, 54]), max_peers=40):
    bits = draw(bits)
    size = 1 << bits
    count = draw(st.integers(1, min(max_peers + 8, size)))
    ids = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count, unique=True))
    source, others = ids[0], ids[1:]
    split = draw(st.integers(0, min(len(others), max_peers)))
    peers, extra_cores = others[:split], others[split:]
    frequencies = {peer: draw(_WEIGHTS) for peer in peers}
    layout = draw(st.sampled_from(["none", "all", "mixed"]))
    if layout == "none":
        cores = set()
    elif layout == "all":
        cores = set(peers) | set(extra_cores)
    else:
        cores = {peer for peer in peers if draw(st.booleans())} | set(extra_cores)
    k = draw(st.integers(0, len(peers) + 2))
    return SelectionProblem(IdSpace(bits), source, frequencies, frozenset(cores), k)


class TestOracleEquality:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(problems(), min_size=1, max_size=6))
    def test_stacked_block_equals_recursive(self, block):
        with always_stacked():
            results = select_chord_many(block)
        for problem, result in zip(block, results):
            assert_identical(result, recursive(problem))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(problems(), min_size=1, max_size=6))
    def test_default_dispatch_equals_recursive(self, block):
        for problem, result in zip(block, select_chord_many(block)):
            assert_identical(result, recursive(problem))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(problems(bits=st.just(32), max_peers=120), min_size=1, max_size=4))
    def test_larger_instances(self, block):
        with always_stacked():
            results = select_chord_many(block)
        for problem, result in zip(block, results):
            assert_identical(result, recursive(problem))

    @pytest.mark.parametrize("bits", [53, 54])
    def test_either_side_of_the_vector_width(self, bits):
        rng = random.Random(bits)
        block = [random_problem(rng, bits=bits, peers=60, cores=8, k=5) for _ in range(3)]
        stacked_peers = sum(len(problem.frequencies) for problem in block)
        assert stacked_peers >= chord_selection._STACK_MIN_PEERS
        for problem, result in zip(block, select_chord_many(block)):
            assert_identical(result, recursive(problem))

    def test_single_peer(self):
        problem = SelectionProblem(IdSpace(16), 7, {900: 2.5}, frozenset({8}), 1)
        with always_stacked():
            (result,) = select_chord_many([problem])
        assert result.auxiliary == {900}
        assert_identical(result, recursive(problem))

    def test_k_zero_and_no_candidates(self):
        rng = random.Random(3)
        base = random_problem(rng, bits=16, peers=30, cores=3, k=4)
        all_cores = SelectionProblem(
            base.space, base.source, base.frequencies, frozenset(base.frequencies), 4
        )
        with always_stacked():
            zero, none = select_chord_many([base.with_k(0), all_cores])
        assert zero.auxiliary == none.auxiliary == frozenset()
        assert_identical(zero, recursive(base.with_k(0)))
        assert_identical(none, recursive(all_cores))

    def test_budget_at_and_above_candidate_count(self):
        rng = random.Random(4)
        base = random_problem(rng, bits=32, peers=50, cores=4, k=0)
        block = [base.with_k(50), base.with_k(75)]
        with always_stacked():
            results = select_chord_many(block)
        for problem, result in zip(block, results):
            assert result.auxiliary == problem.candidates
            assert_identical(result, recursive(problem))

    def test_delay_bounds_rejected(self):
        problem = SelectionProblem(IdSpace(8), 0, {5: 1.0}, frozenset(), 1, delay_bounds={5: 2})
        with pytest.raises(ConfigurationError):
            select_chord_many([problem])


def solve_counting_stacks(block):
    """``select_chord_many(block)`` plus the sizes of the stacks it built."""
    real_stack = chord_selection._StackedBlock
    stacked = []

    def spy(insts, ks):
        stacked.append(len(insts))
        return real_stack(insts, ks)

    with mock.patch.object(chord_selection, "_StackedBlock", spy):
        return select_chord_many(block), stacked


class TestCrossover:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocks_straddling_the_crossover(self, offset):
        total = chord_selection._STACK_MIN_PEERS + offset
        rng = random.Random(total)
        sizes = [total // 3, total // 3, total - 2 * (total // 3)]
        block = [random_problem(rng, bits=32, peers=size, cores=5, k=6) for size in sizes]
        results, stacked = solve_counting_stacks(block)
        assert stacked == ([] if offset < 0 else [3])
        for problem, result in zip(block, results):
            assert_identical(result, recursive(problem))

    def test_wide_ids_leave_the_block(self):
        rng = random.Random(9)
        narrow = [random_problem(rng, bits=32, peers=60, cores=4, k=5) for _ in range(2)]
        wide = random_problem(rng, bits=60, peers=60, cores=4, k=5)
        block = [narrow[0], wide, narrow[1]]
        results, stacked = solve_counting_stacks(block)
        assert stacked == [2]
        for problem, result in zip(block, results):
            assert_identical(result, recursive(problem))


class TestBlockIndependence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(problems(), min_size=2, max_size=6),
        st.randoms(use_true_random=False),
    )
    def test_any_partition_or_permutation(self, block, rnd):
        with always_stacked():
            whole = select_chord_many(block)
            order = list(range(len(block)))
            rnd.shuffle(order)
            cuts = sorted(rnd.sample(range(1, len(block)), rnd.randint(0, len(block) - 1)))
            pieces = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(block)])]
            for piece in pieces:
                for index, result in zip(piece, select_chord_many([block[i] for i in piece])):
                    assert_identical(result, whole[index])

    def test_fast_is_a_block_of_one(self):
        rng = random.Random(11)
        problem = random_problem(rng, bits=32, peers=200, cores=10, k=9)
        assert_identical(select_chord_fast(problem), recursive(problem))


class TestBulkPolicy:
    def test_block_form_matches_select_chord(self):
        rng = random.Random(5)
        block = [
            random_problem(rng, bits=32, peers=peers, cores=6, k=4)
            for peers in (10, 40, 120, 32, 33, 90)
        ]
        for problem, result in zip(block, select_chord_block(block)):
            assert_identical(result, select_chord(problem))

    def test_solver_blocks_keep_order_and_respect_the_budget(self):
        rng = random.Random(6)
        items = [random_problem(rng, bits=32, peers=300, cores=10, k=3) for _ in range(40)]
        blocks = list(solver_blocks(iter(items)))
        assert [problem for block in blocks for problem in block] == items
        per_problem = (300 + 10) * 33
        for block in blocks:
            assert len(block) * per_problem <= max(chord_selection.BLOCK_CELLS, per_problem)
        assert len(blocks) > 1

    def test_bulk_recompute_installs_the_per_node_sets(self):
        space = IdSpace(32)
        bulk = ChordRing.build(160, space=space, seed=2)
        per_node = ChordRing.build(160, space=space, seed=2)
        rng = random.Random(8)
        ids = bulk.alive_ids()
        for ring in (bulk, per_node):
            draw = random.Random(8)
            for node_id in ids:
                peers = draw.sample([other for other in ids if other != node_id], 60)
                ring.seed_frequencies(node_id, {peer: draw.paretovariate(1.2) for peer in peers})
        bulk.recompute_all_auxiliary(6, optimal_policy, rng)
        for node_id in ids:
            per_node.recompute_auxiliary(node_id, 6, optimal_policy, random.Random(0))
        for node_id in ids:
            assert bulk.node(node_id).auxiliary == per_node.node(node_id).auxiliary
