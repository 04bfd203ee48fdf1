"""Unit tests for the disabled-cost overhead bench (cheap pieces only;
the full gated measurement runs via ``repro bench`` in CI)."""

import pytest

import repro.perf.overhead as overhead
from repro.obs.recorder import NullRecorder
from repro.perf.overhead import (
    OVERHEAD_SECTIONS,
    OVERHEAD_THRESHOLD,
    _build_workload,
    _trial_ratio,
    paired_overhead,
)


class TestWorkload:
    def test_deterministic_lookup_stream(self):
        overlay_a, pairs_a = _build_workload("chord", 32, 40)
        overlay_b, pairs_b = _build_workload("chord", 32, 40)
        assert pairs_a == pairs_b
        assert overlay_a.alive_ids() == overlay_b.alive_ids()

    def test_sources_are_alive_nodes(self):
        overlay, pairs = _build_workload("pastry", 32, 40)
        alive = set(overlay.alive_ids())
        assert all(source in alive for source, _ in pairs)


class TestTrialRatio:
    def test_ratio_is_a_sane_positive_number(self):
        overlay, pairs = _build_workload("chord", 32, 40)
        ratio = _trial_ratio(overlay, pairs, chunk=5, rounds=2, recorder=NullRecorder())
        # One tiny trial is noisy, but a 3x swing would mean the variants
        # are not running the same workload at all.
        assert 1 / 3 < ratio < 3


class TestGate:
    def test_threshold_is_the_two_percent_claim(self):
        assert OVERHEAD_THRESHOLD == 1.02

    def test_sections_keep_their_keys_and_timing_plans(self):
        plans = {
            key: (dict(section.plans), section.remeasures)
            for key, section in OVERHEAD_SECTIONS.items()
        }
        assert plans == {
            "obs_overhead": ({"chord": (15, 12), "pastry": (11, 8)}, 2),
            "telemetry_overhead": ({"chord": (15, 12), "pastry": (9, 6)}, 1),
            "cachestats_overhead": ({"chord": (15, 12), "pastry": (11, 8)}, 2),
        }

    @pytest.mark.parametrize("section", sorted(OVERHEAD_SECTIONS))
    def test_an_overlay_over_the_bar_is_remeasured_then_fails(self, monkeypatch, section):
        calls = []

        def always_over(name, n, lookups, trials, chunk, rounds, variant):
            calls.append((name, trials, chunk, rounds, variant))
            return {"median_ratio": OVERHEAD_THRESHOLD + 0.01 * len(calls)}

        monkeypatch.setattr(overhead, "_measure_overlay", always_over)
        report = paired_overhead(section, smoke=True)
        spec = OVERHEAD_SECTIONS[section]
        plans = [
            (name, trials, 5, rounds, spec.variant)
            for name, (trials, rounds) in spec.plans.items()
        ]
        # One pass over every overlay, then each one's re-measures.
        expected = plans + [plan for plan in plans for _ in range(spec.remeasures)]
        assert calls == expected
        assert report["threshold"] == OVERHEAD_THRESHOLD
        assert not report["passed"]
        assert all(entry["remeasured"] for entry in report["overlays"].values())
