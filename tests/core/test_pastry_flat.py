"""The flat prefix greedy ``select_pastry_greedy`` against the trie oracle.

The flat solver builds the compressed trie as the Cartesian tree of the
sorted ids' adjacent-LCP array and runs the eq.-4 merge over flat lists.
It must return exactly what ``select_pastry_greedy_trie`` returns: the
same auxiliary set, a bit-identical cost and the same label — for ties,
signed zeros, integer weights, every core layout, every budget and every
id width up to 160 bits.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import budget, kademlia_selection, pastry_selection
from repro.core.kademlia_selection import select_kademlia, select_kademlia_greedy
from repro.core.pastry_selection import (
    select_pastry,
    select_pastry_greedy,
    select_pastry_greedy_trie,
)
from repro.core.types import SelectionProblem
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace


def assert_identical(got, want):
    assert got.auxiliary == want.auxiliary
    # Leaves are emitted in the same order, so the sets also iterate alike.
    assert list(got.auxiliary) == list(want.auxiliary)
    assert got.cost.hex() == want.cost.hex()
    assert got.algorithm == want.algorithm


_WEIGHTS = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.integers(0, 3).map(float),  # ties everywhere
    st.integers(0, 3),  # int weights keep int sums inside the trie
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw, bits=st.integers(1, 160), max_peers=40):
    bits = draw(bits)
    size = 1 << bits
    count = draw(st.integers(1, min(max_peers + 8, size)))
    # A shared leading prefix pushes the first split below depth 0, so
    # the trie root is unary.
    prefix_len = draw(st.integers(0, bits - 1))
    free_bits = bits - prefix_len
    if count > 1 << free_bits:
        count = 1 << free_bits
    prefix = draw(st.integers(0, (1 << prefix_len) - 1)) << free_bits
    suffixes = draw(
        st.lists(
            st.integers(0, (1 << free_bits) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    ids = [prefix | suffix for suffix in suffixes]
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
        # Queried cores (cores among the peers) and unqueried ones.
        cores = {peer for peer in peers if draw(st.booleans())} | set(extra_cores)
    k = draw(st.integers(0, len(peers) + 2))
    return SelectionProblem(IdSpace(bits), source, frequencies, frozenset(cores), k)


class TestFlatMatchesTrie:
    @settings(max_examples=400, deadline=None)
    @given(problems())
    def test_identical_to_trie_greedy(self, problem):
        assert_identical(select_pastry_greedy(problem), select_pastry_greedy_trie(problem))

    @settings(max_examples=150, deadline=None)
    @given(problems(bits=st.integers(1, 6), max_peers=12))
    def test_identical_on_dense_small_spaces(self, problem):
        assert_identical(select_pastry_greedy(problem), select_pastry_greedy_trie(problem))

    @settings(max_examples=100, deadline=None)
    @given(problems(bits=st.sampled_from([53, 54, 64, 128, 160])))
    def test_identical_beyond_53_bits(self, problem):
        assert_identical(select_pastry_greedy(problem), select_pastry_greedy_trie(problem))

    @settings(max_examples=100, deadline=None)
    @given(problems())
    def test_kademlia_relabel_picks_up_the_flat_solver(self, problem):
        oracle = select_pastry_greedy_trie(problem)
        got = select_kademlia_greedy(problem)
        assert got.auxiliary == oracle.auxiliary
        assert got.cost.hex() == oracle.cost.hex()
        assert got.algorithm == "kademlia-greedy"


def _problem(bits, source, frequencies, cores=(), k=2):
    return SelectionProblem(IdSpace(bits), source, frequencies, frozenset(cores), k)


class TestEdgeCases:
    @pytest.mark.parametrize(
        "problem",
        [
            _problem(8, 0, {}, k=3),  # nothing at all
            _problem(8, 0, {}, cores=[1, 200], k=3),  # cores only
            _problem(1, 0, {1: 2.0}, k=1),  # one peer, one-bit space
            _problem(16, 0, {0xBEEF: 5.0}, k=0),  # one peer, no budget
            _problem(16, 0, {0xBEEF: 5.0}, cores=[0xBEEF], k=1),  # queried core
            _problem(8, 0, {0b11110000: 1.0, 0b11110001: 1.0}, k=1),  # tie, unary root
            _problem(8, 0, {0b01: -0.0, 0b10: -0.0}, k=1),  # signed zeros
            _problem(8, 0, {1: 1.0, 2: 1.0, 3: 1.0}, k=10),  # k >= candidates
            _problem(160, 1, {(1 << 159) | 5: 3.0, (1 << 159) | 9: 1.0, 7: 2.0}, cores=[8], k=2),
        ],
    )
    def test_hand_picked(self, problem):
        assert_identical(select_pastry_greedy(problem), select_pastry_greedy_trie(problem))

    def test_long_shared_prefix(self):
        prefix = 0b1011 << 60
        frequencies = {prefix | value: float(value % 3) for value in range(1, 40)}
        problem = _problem(64, prefix, frequencies, cores=[prefix | 77], k=5)
        assert_identical(select_pastry_greedy(problem), select_pastry_greedy_trie(problem))

    def test_rejects_delay_bounds(self):
        problem = SelectionProblem(IdSpace(8), 0, {3: 1.0}, frozenset(), 1, {3: 2})
        with pytest.raises(ConfigurationError):
            select_pastry_greedy(problem)
        with pytest.raises(ConfigurationError):
            select_pastry_greedy_trie(problem)


class _NoTrie:
    def __init__(self, *args, **kwargs):
        raise AssertionError("runtime greedy dispatch built a PeerTrie")


class TestDispatch:
    """Without QoS bounds the runtime entry points never build a trie."""

    PROBLEM = _problem(16, 0, {0x1234: 3.0, 0x8000: 1.0, 0x8001: 1.0, 0xFFFF: 2.0}, [0x1235], k=2)

    @pytest.mark.parametrize(
        "select, label",
        [
            (select_pastry, "pastry-greedy"),
            (select_kademlia, "kademlia-greedy"),
            (budget.selector_for("pastry"), "pastry-greedy"),
            (budget.selector_for("kademlia"), "kademlia-greedy"),
        ],
    )
    def test_greedy_dispatch_is_flat(self, select, label):
        oracle = select_pastry_greedy_trie(self.PROBLEM)
        with mock.patch.object(pastry_selection, "PeerTrie", _NoTrie):
            got = select(self.PROBLEM)
        assert got.auxiliary == oracle.auxiliary
        assert got.cost.hex() == oracle.cost.hex()
        assert got.algorithm == label

    def test_qos_dispatch_still_uses_the_dp(self):
        bounded = SelectionProblem(
            self.PROBLEM.space, 0, self.PROBLEM.frequencies, self.PROBLEM.core_neighbors, 2, {0xFFFF: 1}
        )
        assert select_pastry(bounded).algorithm == "pastry-dp"
        assert select_kademlia(bounded).algorithm == "kademlia-dp"
        # Positive control: the patch does catch a solver that builds a trie.
        with mock.patch.object(pastry_selection, "PeerTrie", _NoTrie):
            with pytest.raises(AssertionError, match="PeerTrie"):
                kademlia_selection.select_kademlia(bounded)
