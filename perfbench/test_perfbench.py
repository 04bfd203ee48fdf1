"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
import types

import pytest

import cell
import run
from tracer import LAYERS, Tracer, targets

cell.import_package()

from repro.kademlia.network import KademliaNetwork  # noqa: E402
from repro.sim.metrics import HopStatistics  # noqa: E402
from repro.sim.runner import ChurnConfig, ExperimentConfig, run_churn, run_stable  # noqa: E402

SMALL_CELLS = {
    "chord-columnar": (run_stable, ExperimentConfig(overlay="chord", n=64, k=4, queries=300, engine="columnar", seed=3)),
    "kademlia-objects": (run_stable, ExperimentConfig(overlay="kademlia", n=32, k=3, queries=300, seed=3)),
    "pastry-churn": (run_churn, ChurnConfig(overlay="pastry", n=24, k=3, duration=160.0, warmup=40.0, seed=3)),
}


def _originals():
    return [(t.owner, t.attr, vars(t.owner).get(t.attr)) for t in targets()]


@pytest.mark.parametrize("name", sorted(SMALL_CELLS))
def test_self_times_cover_the_traced_cell(name):
    runner, config = SMALL_CELLS[name]
    with Tracer() as tracer:
        tracer.cell(runner, config)
    self_times = tracer.self_times()
    assert set(self_times) == {*LAYERS, "trace.wrapper"}
    assert all(value >= 0.0 for value in self_times.values()), self_times
    # Layer self times, the runner's own (the root span) and the wrappers'
    # own cost add up to the cell.
    assert math.isclose(sum(self_times.values()), tracer.cell_seconds(), rel_tol=1e-9, abs_tol=1e-9)
    assert tracer.calls()["cell"] == 1


@pytest.mark.parametrize("name", sorted(SMALL_CELLS))
def test_traced_cell_matches_untraced_and_restores_originals(name):
    runner, config = SMALL_CELLS[name]
    before = _originals()
    untraced = cell.simulated(runner(config))
    with Tracer() as tracer:
        traced = cell.simulated(tracer.cell(runner, config))
    assert traced == untraced
    assert _originals() == before
    assert all(vars(owner).get(attr) is original for owner, attr, original in before)


def test_wrapper_cost_is_not_charged_to_the_caller():
    statistics = HopStatistics()
    outcome = types.SimpleNamespace(hops=1, timeouts=0, succeeded=True, latency=1)

    def many_records(config):
        for _ in range(20000):
            statistics.record(outcome)

    with Tracer() as tracer:
        tracer.cell(many_records, None)
    self_times = tracer.self_times()
    assert tracer.calls()["metrics.fold"] == 20000
    assert self_times["cell"] < 0.5 * self_times["trace.wrapper"], self_times


def _batched_recompute_all(monkeypatch):
    """Make Kademlia's bulk recompute skip the (wrapped) per-node method,
    as a batched selection rewrite would."""
    per_node = KademliaNetwork.recompute_auxiliary

    def recompute_all(self, k, policy, rng, frequency_limit=None):
        for node_id in self.alive_ids():
            per_node(self, node_id, k, policy, rng, frequency_limit)

    monkeypatch.setattr(KademliaNetwork, "recompute_all_auxiliary", recompute_all)


def test_digest_and_counts_do_not_depend_on_the_bulk_path(monkeypatch):
    runner, config = SMALL_CELLS["kademlia-objects"]
    observed = []
    for batched in (False, True):
        if batched:
            _batched_recompute_all(monkeypatch)
        with Tracer() as tracer:
            result = cell.simulated(tracer.cell(runner, config))
        observed.append((result, tracer.pointer_digest, tracer.counts))
    assert observed[0] == observed[1]
    assert observed[0][2]["recomputes"] > 0


@pytest.mark.parametrize("batched", [False, True])
def test_setup_hook_fires_on_either_recompute_entry(monkeypatch, batched):
    if batched:
        _batched_recompute_all(monkeypatch)
    runner, config = SMALL_CELLS["kademlia-objects"]
    before = _originals()
    t0 = time.monotonic()
    hook = cell._FirstRecompute(stop=True)
    with pytest.raises(cell._SetupDone):
        runner(config)
    hook.restore()
    assert 0.0 < hook.setup_s(t0) < time.monotonic() - t0
    assert _originals() == before


def test_setup_hook_without_a_recompute_fails_clearly():
    hook = cell._FirstRecompute(stop=False)
    hook.restore()
    with pytest.raises(SystemExit, match="never called recompute_auxiliary"):
        hook.setup_s(time.monotonic())


def test_tracer_restores_originals_when_the_cell_raises():
    before = _originals()

    def broken(config):
        run_stable(config)
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError), Tracer() as tracer:
        tracer.cell(broken, SMALL_CELLS["kademlia-objects"][1])
    assert all(vars(owner).get(attr) is original for owner, attr, original in before)


def test_pointer_digest_sees_a_moved_pointer_set():
    runner, config = SMALL_CELLS["kademlia-objects"]
    digests = []
    for k in (config.k, config.k - 1):
        with Tracer() as tracer:
            tracer.cell(runner, dataclasses.replace(config, k=k))
        digests.append(tracer.pointer_digest)
    assert digests[0] != digests[1]


def _reference_entry(name):
    with open(run.REFERENCE) as handle:
        return json.load(handle)["workloads"][name]


def test_check_flags_a_doctored_reference():
    reference = _reference_entry("pastry-churn")
    good = {"simulated": copy.deepcopy(reference["simulated"])}
    assert run.check_cells("pastry-churn", [good], reference) == 0
    doctored = copy.deepcopy(reference)
    doctored["simulated"]["optimized"]["total_hops"] += 1
    assert run.check_cells("pastry-churn", [good], doctored) == 1


def test_held_out_seed_checks_catch_failures_and_short_counts():
    reference = _reference_entry("kademlia-lookups")["simulated"]
    assert run.check_simulated("kademlia-lookups", reference, None) == []
    broken = copy.deepcopy(reference)
    broken["baseline"]["failures"] = 1
    broken["optimized"]["lookups"] -= 1
    assert len(run.check_simulated("kademlia-lookups", broken, None)) == 2


def test_run_fails_against_a_doctored_reference_file(tmp_path, monkeypatch, capsys):
    document = json.loads(run.REFERENCE.read_text())
    document["workloads"]["kademlia-lookups"]["simulated"]["improvement_pct"] += 1e-9
    doctored = tmp_path / "reference.json"
    doctored.write_text(json.dumps(document))
    monkeypatch.setattr(run, "REFERENCE", doctored)
    code = run.main(["--workload", "kademlia-lookups", "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "0", "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pastry-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    traced = {
        "self_s": dict.fromkeys((*LAYERS, "trace.wrapper"), 1.0),
        "calls": dict.fromkeys(LAYERS, 1),
        "counts": {key: 1 for key in Tracer().counts},
        "cell_s": 2.0,
        "simulated": _reference_entry("pastry-churn")["simulated"],
    }
    layer_metrics = run.per_layer({"cell_s": 1.0}, traced)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer_metrics.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
