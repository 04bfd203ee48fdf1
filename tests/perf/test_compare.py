"""Unit tests for bench-document loading and regression detection."""

import json

import pytest

from repro.perf.compare import Regression, find_regressions, load_bench, ungated_micro
from repro.util.errors import ConfigurationError


def _document(micro_medians):
    return {
        "schema": "BENCH_v1",
        "micro": {
            name: {"repeats": 5, "warmup": 1, "min_s": median, "median_s": median,
                   "mean_s": median, "p95_s": median, "max_s": median}
            for name, median in micro_medians.items()
        },
        "macro": {},
    }


class TestLoadBench:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_document({"a": 0.01})))
        assert load_bench(path)["micro"]["a"]["median_s"] == 0.01

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_bench(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_bench(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "BENCH_v0", "micro": {}}))
        with pytest.raises(ConfigurationError):
            load_bench(path)


class TestFindRegressions:
    def test_flags_slowdowns_past_threshold(self):
        baseline = _document({"fast": 0.001, "slow": 0.010})
        current = _document({"fast": 0.001, "slow": 0.025})
        regressions = find_regressions(baseline, current, threshold=2.0)
        assert [r.name for r in regressions] == ["slow"]
        assert regressions[0].ratio == pytest.approx(2.5)

    def test_within_threshold_passes(self):
        baseline = _document({"a": 0.010})
        current = _document({"a": 0.019})
        assert find_regressions(baseline, current, threshold=2.0) == []

    def test_speedups_never_flagged(self):
        baseline = _document({"a": 0.010})
        current = _document({"a": 0.001})
        assert find_regressions(baseline, current) == []

    def test_only_common_names_compared(self):
        baseline = _document({"renamed_old": 0.001})
        current = _document({"renamed_new": 1.0})
        assert find_regressions(baseline, current) == []

    def test_sorted_worst_first(self):
        baseline = _document({"a": 0.001, "b": 0.001})
        current = _document({"a": 0.003, "b": 0.010})
        regressions = find_regressions(baseline, current)
        assert [r.name for r in regressions] == ["b", "a"]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            find_regressions(_document({}), _document({}), threshold=1.0)

    def test_describe_mentions_ratio(self):
        regression = Regression("kern", baseline_median_s=0.001, current_median_s=0.004)
        assert "4.00x" in regression.describe()


class TestUngatedMicro:
    def test_names_entries_missing_from_the_baseline(self):
        baseline = _document({"kept": 0.001, "dropped": 0.001})
        current = _document({"kept": 0.001, "new_b": 0.002, "new_a": 0.002})
        assert ungated_micro(baseline, current) == ["new_a", "new_b"]

    def test_empty_when_the_baseline_covers_the_run(self):
        baseline = _document({"a": 0.001, "b": 0.001})
        assert ungated_micro(baseline, _document({"a": 0.002})) == []
