"""Unit tests for SelectionProblem / SelectionResult validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.validation import require_frequencies, require_non_negative_int


def make(**overrides):
    defaults = dict(
        space=IdSpace(8),
        source=1,
        frequencies={2: 1.0, 3: 2.0},
        core_neighbors=frozenset({4}),
        k=1,
    )
    defaults.update(overrides)
    return SelectionProblem(**defaults)


class TestSelectionProblem:
    def test_valid_construction(self):
        problem = make()
        assert problem.candidates == {2, 3}

    def test_candidates_exclude_core(self):
        problem = make(frequencies={2: 1.0, 4: 5.0})
        assert problem.candidates == {2}

    def test_rejects_source_in_frequencies(self):
        with pytest.raises(ConfigurationError):
            make(frequencies={1: 1.0})

    def test_rejects_source_as_core(self):
        with pytest.raises(ConfigurationError):
            make(core_neighbors=frozenset({1}))

    def test_rejects_negative_k(self):
        with pytest.raises(ConfigurationError):
            make(k=-1)

    def test_rejects_out_of_space_ids(self):
        with pytest.raises(ConfigurationError):
            make(frequencies={999: 1.0})
        with pytest.raises(ConfigurationError):
            make(core_neighbors=frozenset({999}))
        with pytest.raises(ConfigurationError):
            make(source=999)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ConfigurationError):
            make(frequencies={2: -1.0})

    def test_rejects_bad_delay_bound(self):
        with pytest.raises(ConfigurationError):
            make(delay_bounds={2: 0})
        with pytest.raises(ConfigurationError):
            make(delay_bounds={2: 1.5})

    def test_with_k_copies(self):
        problem = make()
        bigger = problem.with_k(5)
        assert bigger.k == 5
        assert bigger.frequencies == problem.frequencies
        assert problem.k == 1  # original untouched


class TestSelectionResult:
    def test_valid(self):
        result = SelectionResult(frozenset({1, 2}), 10.0, "test")
        assert result.auxiliary == {1, 2}

    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            SelectionResult(frozenset(), -1.0, "test")

    def test_rejects_nan_cost(self):
        with pytest.raises(ConfigurationError):
            SelectionResult(frozenset(), float("nan"), "test")


def _per_item_checks(space, source, frequencies, core_neighbors, k):
    """The item-by-item validation ``SelectionProblem`` runs when its bulk
    pass fails: the reference every outcome must match, first error
    included."""
    space.validate(source, "source id")
    require_non_negative_int(k, "k")
    require_frequencies(frequencies)
    for peer in frequencies:
        space.validate(peer, "peer id")
    if source in frequencies:
        raise ConfigurationError("frequencies must not include the source node itself")
    for neighbor in core_neighbors:
        space.validate(neighbor, "core neighbor id")
    if source in core_neighbors:
        raise ConfigurationError("core_neighbors must not include the source node itself")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    return None


def _construct(space, source, frequencies, core_neighbors, k):
    SelectionProblem(space=space, source=source, frequencies=frequencies, core_neighbors=core_neighbors, k=k)


_NAN, _INF = float("nan"), float("inf")


class TestBulkValidationParity:
    @pytest.mark.parametrize(
        "frequencies, core",
        [
            ({True: 1.0}, {4}),
            ({2: 1.0, False: 1.0}, {4}),
            ({-1: 1.0}, {4}),
            ({256: 1.0}, {4}),
            ({2.0: 1.0}, {4}),
            ({2: _NAN}, {4}),
            ({2: _INF}, {4}),
            ({2: -_INF}, {4}),
            ({2: -1.0}, {4}),
            ({2: "heavy"}, {4}),
            ({2: None}, {4}),
            ({256: 1.0, 2: _NAN}, {4}),  # the weight error comes first
            ({2: 1.0}, {256}),
            ({2: 1.0}, {-3}),
            ({2: 1.0}, {1.5}),
            ({2: 1.0}, {True}),  # a bool neighbor passes validate
            ({2: 1.0}, {1}),  # the source as a core neighbor
            ({1: 1.0}, {4}),  # the source among the frequencies
            ({2: 1e308, 3: 1e308}, {4}),  # finite weights, infinite sum
            ({2: 10**400}, {4}),  # too large for a float, still finite
            ({}, set()),
        ],
    )
    def test_same_error_as_per_item_loop(self, frequencies, core):
        args = (IdSpace(8), 1, frequencies, frozenset(core), 2)
        assert _outcome(_construct, *args) == _outcome(_per_item_checks, *args)

    def test_overflowing_sum_is_accepted(self):
        problem = make(frequencies={2: 1e308, 3: 1e308})
        assert problem.candidates == {2, 3}

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.one_of(st.integers(-2, 300), st.booleans(), st.floats(0, 300)),
            st.one_of(
                st.floats(-1.0, 1e308),
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-1, 10**400),
                st.just("w"),
            ),
            max_size=6,
        ),
        st.frozensets(st.one_of(st.integers(-2, 300), st.booleans()), max_size=4),
    )
    def test_any_input_same_outcome(self, frequencies, core):
        args = (IdSpace(8), 1, frequencies, core, 2)
        assert _outcome(_construct, *args) == _outcome(_per_item_checks, *args)
