"""Benchmark: whole simulation comparison cells, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Every cell runs in a fresh single-threaded child process (``cell.py``)
through the public ``repro.sim.runner.run_stable`` / ``run_churn``.

``--trace 0`` first starts the cell several times only up to its first
``recompute_auxiliary`` call (set-up probes), then runs whole untraced
cells back to back for ``--seconds`` and reports the end-to-end metrics
(medians over the cells). ``--trace 1`` runs untraced/traced cell pairs
for ``--seconds`` and reports the per-layer split of the traced cells.

Every cell's simulated statistics are checked: at the default seed
against the committed ``reference.json`` (plus the pointer-set digest of
traced cells), at any other seed against invariants (all configured
lookups attempted, no failures in stable cells); all cells of one run
must agree, traced with untraced. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` counts the cells run and ``failed`` those that failed a
check. A failed check exits 1, a crashed cell exits 2 without a result.

``--write-reference`` records the reference entry of one workload at the
default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Set-up probes per ``--trace 0`` run (each cell adds one more sample).
SETUP_PROBES = 5
#: No cell is started once this much of the 180 s run limit is used.
WALL_LIMIT_S = 150.0
#: One thread per cell: keep NumPy's BLAS pools at a single thread.
_SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "cell_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "lookup_success_frac": "ratio",
}


class CellCrashed(RuntimeError):
    """A cell process exited non-zero or printed no result."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one ``cell.py`` child to completion and return its JSON result."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(HERE / "cell.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **_SINGLE_THREAD},
            capture_output=True, text=True, timeout=WALL_LIMIT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise CellCrashed(f"{mode} cell of {workload} ran over {WALL_LIMIT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CellCrashed(f"{mode} cell of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_cells(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> list[list[dict]]:
    """Run rounds of ``modes`` cells until ``seconds`` have passed (at
    least one round, none started past the wall limit)."""
    start = time.monotonic()
    rounds = []
    while True:
        round_start = time.monotonic()
        rounds.append([spawn(workload, seed, mode) for mode in modes])
        now = time.monotonic()
        if now - start >= seconds or now - start + 1.5 * (now - round_start) > WALL_LIMIT_S:
            return rounds


# -- checks ---------------------------------------------------------------
def check_simulated(name: str, simulated: dict, expected: dict | None) -> list[str]:
    """Problems with one cell's simulated statistics; ``expected`` is the
    reference (default seed) or the run's first cell (held-out seed)."""
    problems = []
    if expected is not None and simulated != expected:
        problems.append(f"simulated statistics differ: {simulated} != {expected}")
    workload = WORKLOADS[name]
    optimized, baseline = simulated["optimized"], simulated["baseline"]
    if workload.queries is not None:
        for label, stats in (("optimized", optimized), ("baseline", baseline)):
            if stats["lookups"] != workload.queries:
                problems.append(f"{label}: {stats['lookups']} lookups, configured {workload.queries}")
            if stats["failures"]:
                problems.append(f"{label}: {stats['failures']} failed lookups in a stable cell")
    elif not 0 < optimized["lookups"] == baseline["lookups"]:
        problems.append(
            f"policies attempted {optimized['lookups']} and {baseline['lookups']} lookups"
        )
    return problems


def check_cells(name: str, cells: list[dict], reference: dict | None) -> int:
    """Number of cells that fail a check; problems go to stderr."""
    expected_sim = reference["simulated"] if reference else cells[0]["simulated"]
    traced = [cell for cell in cells if "pointer_digest" in cell]
    first = traced[0] if traced else None
    expected_digest = reference["pointer_digest"] if reference else first and first["pointer_digest"]
    failed = 0
    for index, cell in enumerate(cells):
        problems = check_simulated(name, cell["simulated"], expected_sim)
        if "pointer_digest" in cell:
            if cell["pointer_digest"] != expected_digest:
                problems.append(f"pointer digest {cell['pointer_digest']} != {expected_digest}")
            if (cell["calls"], cell["counts"]) != (first["calls"], first["counts"]):
                problems.append("per-layer counts differ between traced cells")
            if not cell["restored"]:
                problems.append("traced cell left wrapped functions behind")
        for problem in problems:
            print(f"perfbench: {name} cell {index}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


# -- metrics --------------------------------------------------------------
def _per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def end_to_end(setups: list[dict], cells: list[dict]) -> dict[str, float]:
    sim = cells[0]["simulated"]
    optimized, baseline = sim["optimized"], sim["baseline"]
    attempted = optimized["lookups"] + baseline["lookups"]
    return {
        "cell_s": statistics.median(cell["cell_s"] for cell in cells),
        "setup_s": statistics.median(run["setup_s"] for run in setups + cells),
        "peak_rss_mb": statistics.median(cell["peak_rss_mb"] for cell in cells),
        "lookup_success_frac": _per(optimized["successes"] + baseline["successes"], attempted),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced cell, paired with its untraced twin."""
    s, calls, counts = traced["self_s"], traced["calls"], traced["counts"]
    lookups = calls["routing.lookup"]
    return {
        "selection.optimal_s": (s["selection.optimal"], "s"),
        "selection.optimal_calls": (calls["selection.optimal"], "count"),
        "selection.optimal_us_per_call": (_per(s["selection.optimal"], calls["selection.optimal"], 1e6), "us"),
        "selection.oblivious_s": (s["selection.oblivious"], "s"),
        "selection.oblivious_calls": (calls["selection.oblivious"], "count"),
        "selection.install_s": (s["selection.install"], "s"),
        "selection.candidates": (counts["candidates"], "count"),
        "selection.changed_frac": (_per(counts["changed"], counts["recomputes"]), "ratio"),
        "routing.lookup_s": (s["routing.lookup"], "s"),
        "routing.lookups": (lookups, "count"),
        "routing.us_per_lookup": (_per(s["routing.lookup"], lookups, 1e6), "us"),
        "routing.hops": (counts["hops"], "count"),
        "routing.timeouts": (counts["timeouts"], "count"),
        "routing.success_frac": (_per(counts["successes"], lookups), "ratio"),
        "engine.snapshot_s": (s["engine.snapshot"], "s"),
        "engine.route_s": (s["engine.route"], "s"),
        "engine.lookups": (counts["engine_lookups"], "count"),
        "maintenance.stabilize_s": (s["maintenance.stabilize"], "s"),
        "maintenance.stabilize_calls": (calls["maintenance.stabilize"], "count"),
        "churn.transition_s": (s["churn.transition"], "s"),
        "churn.transitions": (calls["churn.transition"], "count"),
        "sim.scheduler_s": (s["sim.scheduler"], "s"),
        "sim.events_fired": (counts["events_fired"], "count"),
        "sim.us_per_event": (_per(s["sim.scheduler"], counts["events_fired"], 1e6), "us"),
        "overlay.build_s": (s["overlay.build"], "s"),
        "workload.node_frequencies_s": (s["workload.node_frequencies"], "s"),
        "frequency.seed_s": (s["frequency.seed"], "s"),
        "frequency.seed_calls": (calls["frequency.seed"], "count"),
        "metrics.fold_s": (s["metrics.fold"], "s"),
        "metrics.mean_hops": (traced["simulated"]["optimized"]["mean_hops"], "hops"),
        "metrics.improvement_pct": (traced["simulated"]["improvement_pct"], "%"),
        "runner.self_s": (s["cell"], "s"),
        "trace.cell_s": (traced["cell_s"], "s"),
        "trace.wrapper_s": (s["trace.wrapper"], "s"),
        "trace.overhead_frac": (traced["cell_s"] / untraced["cell_s"] - 1.0, "ratio"),
    }


def _median_metrics(samples: list[dict[str, tuple[float, str]]]) -> dict[str, dict]:
    """Median of each metric over the traced cells; counts repeat exactly
    (checked), so they are reported as the first cell's integer."""
    return {
        name: {
            "value": first if unit == "count" else statistics.median(s[name][0] for s in samples),
            "unit": unit,
        }
        for name, (first, unit) in samples[0].items()
    }


# -- entry points ---------------------------------------------------------
def load_reference(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as handle:
        return json.load(handle)["workloads"][name]


def write_reference(name: str) -> int:
    untraced, traced = run_cells(name, DEFAULT_SEED, 0.0, ("untraced", "traced"))[0]
    if untraced["simulated"] != traced["simulated"] or not traced["restored"]:
        print("perfbench: traced cell disagrees with untraced cell; reference not written", file=sys.stderr)
        return 1
    document = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    document["workloads"][name] = {
        "simulated": untraced["simulated"],
        "pointer_digest": traced["pointer_digest"],
    }
    REFERENCE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"perfbench: wrote {name} at seed {DEFAULT_SEED} to {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Whole-cell simulation benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the workload's reference entry at the default seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference(args.workload)
        reference = load_reference(args.workload, args.seed)
        if args.trace:
            pairs = run_cells(args.workload, args.seed, args.seconds, ("untraced", "traced"))
            cells = [cell for pair in pairs for cell in pair]
            metrics = _median_metrics([per_layer(untraced, traced) for untraced, traced in pairs])
        else:
            setups = [spawn(args.workload, args.seed, "setup") for _ in range(SETUP_PROBES)]
            cells = [cell for (cell,) in run_cells(args.workload, args.seed, args.seconds, ("untraced",))]
            values = end_to_end(setups, cells)
            metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    except CellCrashed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = check_cells(args.workload, cells, reference)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(cells)} cells, {failed} failed checks")
    for name, metric in metrics.items():
        print(f"#   {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": len(cells), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
