"""One stable-cell routine: every caller measures the same universe.

``run_stable``, the traced cell (``trace_cell``) and the telemetry cell
(``metrics_cell``) all install and route a policy through one routine,
so their per-policy statistics must agree on every overlay, under
non-static workloads, global budget plans and injected faults alike.
Budget-planned cells must also serialize byte-identically on both
engines, with seeded and with learned frequencies.
"""

import json
from dataclasses import asdict, replace

import pytest

from repro.engine.dispatch import columnar_support, resolve_engine
from repro.faults.schedule import FaultSchedule
from repro.obs.driver import trace_cell
from repro.sim.runner import ExperimentConfig, run_stable
from repro.telemetry.driver import metrics_cell
from repro.util.jsonfmt import json_float

OVERLAYS = ("chord", "pastry", "kademlia")

VARIANTS = {
    "flash-crowd": {"workload": "flash-crowd"},
    "drifting-zipf": {"workload": "drifting-zipf"},
    "allocated": {"budget_mode": "allocated"},
    "loss+burst": {"faults": FaultSchedule(loss_rate=0.05, crash_burst_size=4)},
}

STAT_KEYS = ("lookups", "successes", "failures", "mean_hops", "failure_rate", "timeout_rate")


def cell(overlay: str, **overrides) -> ExperimentConfig:
    fields = dict(overlay=overlay, n=48, k=4, bits=18, queries=400, seed=3)
    fields.update(overrides)
    return ExperimentConfig(**fields)


def summary(stats) -> dict:
    return {
        "lookups": stats.lookups,
        "successes": stats.successes,
        "failures": stats.failures,
        "mean_hops": json_float(stats.mean_hops),
        "failure_rate": stats.failure_rate,
        "timeout_rate": stats.timeout_rate,
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_traced_and_metered_cells_match_run_stable(overlay, variant):
    config = cell(overlay, **VARIANTS[variant])
    result = run_stable(config)
    expected = {"optimal": summary(result.optimized), "oblivious": summary(result.baseline)}
    assert expected["optimal"] != expected["oblivious"] or variant == "loss+burst"
    for policy, stats in expected.items():
        traced = trace_cell(config, policy=policy, sample=4)["stats"]
        assert {key: traced[key] for key in STAT_KEYS} == stats, policy
        assert metrics_cell(config, policy, rounds=3)["stats"] == stats, policy


def serialized(config: ExperimentConfig) -> str:
    result = run_stable(config)
    return json.dumps(
        {
            "label": result.label,
            "improvement_pct": result.improvement,
            "optimized": asdict(result.optimized),
            "baseline": asdict(result.baseline),
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("learned", [False, True], ids=["seeded", "learned"])
@pytest.mark.parametrize(
    "budget", [{"budget_mode": "allocated"}, {"budget_total": 150}], ids=["allocated", "total"]
)
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_budget_cells_identical_on_both_engines(overlay, budget, learned):
    config = cell(overlay, learned_frequencies=learned, warmup_queries=600, **budget)
    assert config.budget_plan_active
    assert resolve_engine(config) == "columnar"
    documents = {
        engine: serialized(replace(config, engine=engine)) for engine in ("objects", "columnar")
    }
    assert documents["objects"] == documents["columnar"]
    assert "budget=" in json.loads(documents["columnar"])["label"]


def test_columnar_support_has_no_budget_rule():
    for budget in ({"budget_mode": "allocated"}, {"budget_total": 10}):
        assert columnar_support(cell("chord", **budget)) == (True, "")
