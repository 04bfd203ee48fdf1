"""Property tests for the XOR-metric (Kademlia) auxiliary selection.

Mirrors ``test_selection_properties.py`` for the third overlay. The load-
bearing fact: Kademlia's XOR distance class ``bitlength(u XOR v)`` equals
``bits - lcp(u, v)``, so the paper's prefix-trie machinery (Section IV-B)
applies verbatim — and these properties hold for exactly the same reason
they hold on Pastry:

* three-way oracle: DP == greedy == exponential brute force in eq.-1 cost;
* the nesting property (Lemma 4.1) on actual greedy outputs;
* cost monotone non-increasing (and with diminishing returns) in k;
* the scalar cost oracle and the vectorized fast path agree exactly.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import brute_force_optimal, evaluate
from repro.core.kademlia_selection import (
    kademlia_cost_scalar,
    kademlia_cost_vectorized,
    select_kademlia_dp,
    select_kademlia_greedy,
)
from repro.core.oblivious import select_kademlia_oblivious
from tests.helpers import random_problem


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_three_way_oracle(seed):
    """DP, Lemma-4.1 greedy and the exponential ground truth agree on the
    optimal eq.-1 cost; integer weights keep the comparison exact."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=6, peers=7, cores=2, k=3)
    dp = select_kademlia_dp(problem)
    greedy = select_kademlia_greedy(problem)
    brute = brute_force_optimal(problem, "kademlia")
    assert math.isclose(dp.cost, brute.cost, abs_tol=1e-9)
    assert math.isclose(greedy.cost, brute.cost, abs_tol=1e-9)
    # The returned sets must actually realize the claimed cost.
    assert math.isclose(
        evaluate(problem, dp.auxiliary, "kademlia"), dp.cost, abs_tol=1e-9
    )
    assert math.isclose(
        evaluate(problem, greedy.auxiliary, "kademlia"), greedy.cost, abs_tol=1e-9
    )
    assert dp.algorithm == "kademlia-dp"
    assert greedy.algorithm == "kademlia-greedy"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_nesting_property_on_outputs(seed):
    """Property (P): the greedy's j-pointer selection contains its
    (j-1)-pointer selection — Lemma 4.1 transfers to the XOR metric."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=10, peers=25, cores=2, k=0)
    previous: frozenset[int] = frozenset()
    for k in range(1, 7):
        current = select_kademlia_greedy(problem.with_k(k)).auxiliary
        assert previous <= current
        previous = current


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_cost_monotone_with_diminishing_returns(seed):
    """Optimal cost never rises in k, and marginal gains weakly shrink."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=25, cores=2, k=0)
    costs = [select_kademlia_greedy(problem.with_k(k)).cost for k in range(6)]
    for earlier, later in zip(costs, costs[1:]):
        assert later <= earlier + 1e-9
    gains = [costs[i] - costs[i + 1] for i in range(5)]
    for earlier, later in zip(gains, gains[1:]):
        assert later <= earlier + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_optimal_dominates_oblivious_and_empty(seed):
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=30, cores=3, k=5)
    optimal = select_kademlia_greedy(problem)
    oblivious = select_kademlia_oblivious(problem, random.Random(seed))
    empty = evaluate(problem, [], "kademlia")
    assert optimal.cost <= oblivious.cost + 1e-9
    assert oblivious.cost <= empty + 1e-9  # extra pointers never hurt
    assert oblivious.algorithm == "kademlia-oblivious"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_scalar_oracle_matches_vectorized_path(seed):
    """The independent scalar cost loop and the NumPy kernel agree exactly
    on the same pointer sets (the PR-1 oracle-dispatch contract)."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=20, cores=2, k=4)
    for auxiliary in (
        frozenset(),
        select_kademlia_greedy(problem).auxiliary,
        frozenset(list(problem.frequencies)[:2]),
    ):
        scalar = kademlia_cost_scalar(
            problem.space, problem.frequencies, problem.core_neighbors, auxiliary
        )
        assert math.isclose(
            evaluate(problem, auxiliary, "kademlia"), scalar, abs_tol=1e-9
        )
        vectorized = kademlia_cost_vectorized(
            problem.space, problem.frequencies, problem.core_neighbors, auxiliary
        )
        assert math.isclose(vectorized, scalar, abs_tol=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_selection_deterministic(seed):
    """Same problem -> identical selection (no hidden randomness)."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=20, cores=2, k=4)
    assert (
        select_kademlia_greedy(problem).auxiliary
        == select_kademlia_greedy(problem).auxiliary
    )
    assert select_kademlia_dp(problem).auxiliary == select_kademlia_dp(problem).auxiliary
