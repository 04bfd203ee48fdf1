"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure {3,4,5,6}``
    Regenerate one of the paper's evaluation figures and print the series
    as a table (``--detail`` adds raw hop counts; ``--paper`` runs the
    full-size configuration, which takes minutes).
``compare``
    Run a single comparison cell with explicit parameters.
``sweep``
    Sweep one configuration parameter and print a table or CSV.
``bench``
    Run the perf-regression benchmarks and emit a BENCH_v1 document;
    ``--check BASELINE`` fails if any microbenchmark regressed. Also
    fails when the disabled-tracing overhead gate
    (``obs_overhead.passed``) does not hold.
``faults``
    Run the fault-injection robustness grid (%-reduction vs message-loss
    rate and vs crash-burst size) and fail if the frequency-aware policy
    stops winning under >= 5% message loss.
``workload``
    Run the workload-plane grid (every synthetic scenario × overlay ×
    selection mode, plus the §II-C item-cache discipline grid) and fail
    if frequency-aware selection stops winning on skewed scenarios or
    adaptive refresh stops winning anywhere. ``figure``, ``compare``,
    ``sweep``, ``faults`` and ``metrics`` accept ``--workload
    NAME[:PARAM]`` to swap the query scenario on any cell.
``cachestats``
    Run the per-pointer cache attribution grid (:mod:`repro.obs.attribution`):
    hits/uses per (node, pointer class), staleness-at-use under a churn
    probe, quota utilization vs the budget allocator's ``k_i``, and
    per-lookup hop-savings attribution with the conservation law
    Σ(credits) == oblivious − observed hops machine-checked on every
    lookup. Prints utilization/load sparklines and a top-N hot-pointer
    table; ``--json`` writes the CACHESTATS_v1 document. ``repro
    allocate --loads measured`` threads the same recorder's measured
    per-node query rates into ``CostCurve(load=...)`` and gates on a
    strict predicted win; ``repro allocate --workload NAME[:PARAM]``
    swaps the query scenario on the whole allocation grid.
``trace``
    Run one traced cell (:mod:`repro.obs`): per-lookup hop paths with
    pointer-class attribution, a hop-class/verdict breakdown table, and
    optionally the full TRACE_v1 document as JSON. ``--sample N`` keeps
    a seeded reservoir of N lookup traces instead of all of them.
``check``
    Run the invariant-checking scenario search (:mod:`repro.verify`):
    seeded scenarios driven through all three overlays with every applicable
    invariant evaluated per step. Failing scenarios are shrunk to a
    replayable VERIFY_REPRO_v1 JSON (``--repro PATH``); ``--replay PATH``
    re-runs such a document deterministically.
``metrics``
    Run one instrumented comparison cell (:mod:`repro.telemetry`) on the
    deterministic round clock and render an ASCII dashboard of the
    per-round series (sparklines + span profile). ``--json PATH`` writes
    the METRICS_v1 document, ``--openmetrics PATH`` the Prometheus-style
    text exposition (round index as sample timestamp).
``report``
    Regenerate the EXPERIMENTS.md measurement tables at report scale and
    write ``results/report.json`` (REPORT_v1, with manifest) and
    ``results/report.md``.
``demo``
    A 30-second end-to-end tour (used by the quickstart).

``figure``, ``sweep``, ``faults``, ``metrics`` and ``report`` accept
``--jobs`` to fan cells over worker processes (default: ``REPRO_JOBS`` or
the CPU count); outputs are bit-identical at any worker count.
``figure``, ``sweep``, ``faults``, ``trace``, ``check``, ``metrics`` and
``report`` write JSON documents that embed a MANIFEST_v1 provenance block
(config digest, seed, git revision, environment); elapsed wall time is
reported via one shared :class:`repro.util.timer.Stopwatch` and stored
only under the manifest's ``volatile`` part.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.figures import FIGURES, FigurePreset, run_figure
from repro.experiments.report import render_detail, render_markdown, render_table
from repro.util.jsonfmt import write_json_atomic
from repro.util.timer import Stopwatch

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Accelerating Lookups in P2P Systems using Peer "
            "Caching' (Deb et al., ICDE 2008)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one evaluation figure")
    figure.add_argument(
        "figure_id",
        nargs="?",
        choices=sorted(FIGURES),
        default="7",
        help="figure number (default: 7, the three-overlay comparison)",
    )
    figure.add_argument(
        "--overlay",
        choices=["chord", "pastry", "kademlia"],
        default=None,
        help="pin figure 7's cross-overlay grid to one overlay",
    )
    figure.add_argument("--paper", action="store_true", help="full paper-scale parameters (slow)")
    figure.add_argument("--seed", type=int, default=0, help="master random seed")
    figure.add_argument("--detail", action="store_true", help="print raw hop counts too")
    figure.add_argument("--markdown", action="store_true", help="emit a markdown table")
    figure.add_argument("--chart", action="store_true", help="render an ASCII chart")
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for figure cells (default: REPRO_JOBS or CPU count)",
    )
    figure.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the figure as a FIGURE_v1 JSON document (with manifest)",
    )
    figure.add_argument(
        "--engine",
        choices=["auto", "objects", "columnar"],
        default="auto",
        help="routing engine for stable cells (columnar = vectorized struct-of-arrays)",
    )
    figure.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for every cell (e.g. drifting-zipf:30, "
        "flash-crowd:3, trace:/path/to/trace.jsonl; default: static-zipf)",
    )

    compare = sub.add_parser("compare", help="run a single comparison cell")
    compare.add_argument("overlay", choices=["chord", "pastry", "kademlia"])
    compare.add_argument("--n", type=int, default=256)
    compare.add_argument("--k", type=int, default=None, help="auxiliary pointers (default log2 n)")
    compare.add_argument("--alpha", type=float, default=1.2)
    compare.add_argument("--bits", type=int, default=24)
    compare.add_argument("--queries", type=int, default=5000)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--churn", action="store_true", help="run the churn-mode simulation")
    compare.add_argument("--duration", type=float, default=600.0, help="churn sim duration (s)")
    compare.add_argument(
        "--engine",
        choices=["auto", "objects", "columnar"],
        default="auto",
        help="routing engine (stable mode only; churn always uses objects)",
    )
    compare.add_argument(
        "--budget",
        default=None,
        metavar="MODE[:K]",
        help="budget policy: 'uniform' or 'allocated', optionally with a "
        "total pointer budget K (e.g. 'allocated:256'; default K = n*k). "
        "Omit for the legacy per-node-k path",
    )
    compare.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario (default: static-zipf, the paper's workload)",
    )

    sw = sub.add_parser("sweep", help="sweep one config parameter")
    sw.add_argument("overlay", choices=["chord", "pastry", "kademlia"])
    sw.add_argument("parameter", help="ExperimentConfig field to vary (e.g. alpha, k, n)")
    sw.add_argument("values", nargs="+", help="values to sweep over")
    sw.add_argument("--n", type=int, default=128)
    sw.add_argument("--bits", type=int, default=20)
    sw.add_argument("--queries", type=int, default=3000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    sw.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep cells (default: REPRO_JOBS or CPU count)",
    )
    sw.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the sweep as a SWEEP_v1 JSON document (with manifest)",
    )
    sw.add_argument(
        "--engine",
        choices=["auto", "objects", "columnar"],
        default="auto",
        help="routing engine for the swept cells",
    )
    sw.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for the swept cells (default: static-zipf)",
    )

    bench = sub.add_parser("bench", help="run perf benchmarks, emit BENCH_v1 JSON")
    bench.add_argument("--smoke", action="store_true", help="trimmed sizes/repeats (for CI)")
    bench.add_argument("--output", default=None, help="write the BENCH_v1 document here")
    bench.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare micro medians against a baseline BENCH_v1.json; exit 1 on regression",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="regression threshold for --check (default 2.0x)",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the parallel identity check",
    )

    faults = sub.add_parser("faults", help="fault-injection robustness grid")
    faults.add_argument("--smoke", action="store_true", help="CI-scale grid (seconds)")
    faults.add_argument("--seed", type=int, default=0, help="master random seed")
    faults.add_argument("--json", default=None, metavar="PATH", help="write the grid as canonical JSON")
    faults.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (default: REPRO_JOBS or CPU count)",
    )
    faults.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for every grid cell (default: static-zipf)",
    )

    workload = sub.add_parser(
        "workload", help="scenario × overlay × selection comparison grid"
    )
    workload.add_argument("--smoke", action="store_true", help="CI-scale grid (seconds)")
    workload.add_argument("--seed", type=int, default=0, help="master random seed")
    workload.add_argument(
        "--json", default=None, metavar="PATH", help="write the WORKLOAD_v1 document here"
    )
    workload.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (default: REPRO_JOBS or CPU count)",
    )

    allocate = sub.add_parser(
        "allocate", help="uniform-k vs allocated-k at equal total budget"
    )
    allocate.add_argument("--smoke", action="store_true", help="CI-scale grid (seconds)")
    allocate.add_argument("--seed", type=int, default=0, help="master random seed")
    allocate.add_argument(
        "--json", default=None, metavar="PATH", help="write the ALLOCATION_v1 document here"
    )
    allocate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for grid cells (default: REPRO_JOBS or CPU count)",
    )
    allocate.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for the plan probe and every grid cell "
        "(default: static-zipf)",
    )
    allocate.add_argument(
        "--loads",
        choices=["uniform", "measured"],
        default="uniform",
        help="'measured' probes per-node query rates via the attribution "
        "recorder and plans load-aware CostCurves (gated on a strict "
        "predicted win over the uniform-load plan)",
    )

    cachestats = sub.add_parser(
        "cachestats", help="per-pointer cache attribution grid (repro.obs)"
    )
    cachestats.add_argument("--smoke", action="store_true", help="CI-scale grid (seconds)")
    cachestats.add_argument("--seed", type=int, default=0, help="master random seed")
    cachestats.add_argument(
        "--json", default=None, metavar="PATH", help="write the CACHESTATS_v1 document here"
    )
    cachestats.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for overlay cells (default: REPRO_JOBS or CPU count)",
    )
    cachestats.add_argument(
        "--top", type=int, default=5, help="hot pointers to print per overlay (default 5)"
    )
    cachestats.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for every cell (default: static-zipf)",
    )

    trace = sub.add_parser("trace", help="trace per-lookup hop paths for one cell")
    trace.add_argument(
        "overlay", nargs="?", choices=["chord", "pastry", "kademlia"], default="chord",
        help="overlay to trace (default: chord)",
    )
    trace.add_argument("--n", type=int, default=128)
    trace.add_argument("--k", type=int, default=None, help="auxiliary pointers (default log2 n)")
    trace.add_argument("--alpha", type=float, default=1.2)
    trace.add_argument("--bits", type=int, default=20)
    trace.add_argument("--queries", type=int, default=2000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--policy",
        choices=["optimal", "oblivious"],
        default="optimal",
        help="which auxiliary-selection policy to trace",
    )
    trace.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="keep a seeded reservoir of N lookup traces (default: keep all)",
    )
    trace.add_argument(
        "--loss", type=float, default=0.0, help="per-message drop probability (fault plane)"
    )
    trace.add_argument(
        "--burst", type=int, default=0, help="correlated crash-burst size (fault plane)"
    )
    trace.add_argument(
        "--paths", type=int, default=5, help="print the first N kept lookup paths (default 5)"
    )
    trace.add_argument(
        "--json", default=None, metavar="PATH", help="write the TRACE_v1 document here"
    )

    check = sub.add_parser(
        "check", help="invariant-checking scenario search (repro.verify)"
    )
    check.add_argument(
        "--scenarios", type=int, default=200, help="number of generated scenarios"
    )
    check.add_argument("--seed", type=int, default=0, help="master random seed")
    check.add_argument(
        "--overlay",
        choices=["chord", "pastry", "kademlia"],
        default=None,
        help="pin one overlay (default: cycle through all three)",
    )
    check.add_argument(
        "--smoke", action="store_true", help="CI-scale scenario count (seconds)"
    )
    check.add_argument(
        "--json", default=None, metavar="PATH", help="write the CHECK_v1 document here"
    )
    check.add_argument(
        "--repro",
        default="verify_failure.json",
        metavar="PATH",
        help="where to write the shrunk VERIFY_REPRO_v1 on failure",
    )
    check.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-run a shrunk VERIFY_REPRO_v1 failure document instead of searching",
    )

    metrics = sub.add_parser(
        "metrics", help="round-clocked telemetry dashboard for one cell"
    )
    metrics.add_argument(
        "overlay", nargs="?", choices=["chord", "pastry", "kademlia"], default="chord",
        help="overlay to instrument (default: chord)",
    )
    metrics.add_argument("--n", type=int, default=128)
    metrics.add_argument("--k", type=int, default=None, help="auxiliary pointers (default log2 n)")
    metrics.add_argument("--alpha", type=float, default=1.2)
    metrics.add_argument("--bits", type=int, default=20)
    metrics.add_argument("--queries", type=int, default=4000)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--rounds", type=int, default=12, help="round-clock samples (default 12)"
    )
    metrics.add_argument(
        "--churn", action="store_true", help="churn-mode cell (virtual-time round clock)"
    )
    metrics.add_argument(
        "--duration", type=float, default=600.0, help="churn sim duration (s)"
    )
    metrics.add_argument(
        "--loss", type=float, default=0.0, help="per-message drop probability (fault plane)"
    )
    metrics.add_argument(
        "--burst", type=int, default=0, help="correlated crash-burst size (fault plane)"
    )
    metrics.add_argument(
        "--smoke", action="store_true", help="CI-scale cell (seconds)"
    )
    metrics.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the two policy cells (default: REPRO_JOBS or CPU count)",
    )
    metrics.add_argument(
        "--json", default=None, metavar="PATH", help="write the METRICS_v1 document here"
    )
    metrics.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help="write the OpenMetrics text exposition here",
    )
    metrics.add_argument(
        "--workload",
        default="static-zipf",
        metavar="NAME[:PARAM]",
        help="query scenario for the instrumented cell (default: static-zipf)",
    )

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md tables (results/report.*)"
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for figure cells (default: REPRO_JOBS or CPU count)",
    )
    report.add_argument(
        "--figures",
        nargs="+",
        default=("3", "4", "5", "6", "7"),
        choices=("3", "4", "5", "6", "7"),
        help="subset of figures to regenerate",
    )
    report.add_argument(
        "--out-dir", default="results", help="output directory (default: results)"
    )

    sub.add_parser("demo", help="30-second end-to-end tour")
    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    preset = FigurePreset.paper(args.seed) if args.paper else FigurePreset.quick(args.seed)
    watch = Stopwatch()
    result = run_figure(
        args.figure_id,
        preset,
        jobs=args.jobs,
        engine=args.engine,
        overlay=args.overlay,
        workload=args.workload,
    )
    print(render_table(result))
    if args.detail:
        print()
        print(render_detail(result))
    if args.markdown:
        print()
        print(render_markdown(result))
    if args.chart:
        from repro.analysis.ascii_chart import render_chart

        print()
        print(render_chart(result))
    if args.json:
        from repro.experiments.figures import result_to_json

        write_json_atomic(args.json, result_to_json(result, preset, wall_time_s=round(watch.elapsed, 3)))
        print(f"\nfigure document written to {args.json}")
    print(f"\n[{preset.name} preset, {watch}]")
    return 0


def _parse_budget(text: str | None) -> dict:
    """``--budget MODE[:K]`` -> ExperimentConfig budget kwargs."""
    if text is None:
        return {}
    mode, sep, total = text.partition(":")
    if mode not in ("uniform", "allocated"):
        raise SystemExit(
            f"--budget mode must be 'uniform' or 'allocated', got {mode!r}"
        )
    kwargs: dict = {"budget_mode": mode}
    if sep:
        try:
            kwargs["budget_total"] = int(total)
        except ValueError:
            raise SystemExit(f"--budget total must be an integer, got {total!r}")
    elif mode == "allocated":
        # Bare 'allocated' still plans: K defaults to n * effective_k.
        kwargs["budget_total"] = None
    return kwargs


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.sim.runner import ChurnConfig, ExperimentConfig, run_churn, run_stable

    budget_kwargs = _parse_budget(args.budget)
    if args.churn:
        config = ChurnConfig(
            overlay=args.overlay,
            n=args.n,
            k=args.k,
            alpha=args.alpha,
            bits=args.bits,
            seed=args.seed,
            duration=args.duration,
            warmup=min(args.duration / 4, 300.0),
            workload=args.workload,
            **budget_kwargs,
        )
        result = run_churn(config)
    else:
        config = ExperimentConfig(
            overlay=args.overlay,
            n=args.n,
            k=args.k,
            alpha=args.alpha,
            bits=args.bits,
            queries=args.queries,
            seed=args.seed,
            engine=args.engine,
            workload=args.workload,
            **budget_kwargs,
        )
        result = run_stable(config)
    print(result.summary())
    print(
        f"  failure rates: ours {result.optimized.failure_rate:.4f}, "
        f"oblivious {result.baseline.failure_rate:.4f}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.runner import ExperimentConfig
    from repro.experiments.sweep import rows_to_csv, rows_to_json, rows_to_table, sweep

    base = ExperimentConfig(
        overlay=args.overlay,
        n=args.n,
        bits=args.bits,
        queries=args.queries,
        seed=args.seed,
        engine=args.engine,
        workload=args.workload,
    )

    def convert(text: str):
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                continue
        return text

    rows = sweep(base, args.parameter, [convert(value) for value in args.values], jobs=args.jobs)
    print(rows_to_csv(rows) if args.csv else rows_to_table(rows))
    if args.json:
        write_json_atomic(args.json, rows_to_json(rows, base))
        print(f"\nsweep document written to {args.json}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.compare import find_regressions, load_bench, ungated_micro
    from repro.perf.runner import print_summary, run_bench, write_bench

    # Load the baseline before the (minutes-long) bench run so a bad
    # --check path fails immediately.
    baseline = load_bench(args.check) if args.check else None
    document = run_bench(smoke=args.smoke, jobs=args.jobs)
    print_summary(document)
    if args.output:
        path = write_bench(document, args.output)
        print(f"\nbench document written to {path}")
    if not document["parallel"]["identical"]:
        print("\nFAIL: parallel sweep output diverged from the serial run", file=sys.stderr)
        return 1
    for key, label in (
        ("obs_overhead", "disabled-tracing"),
        ("telemetry_overhead", "disabled-telemetry"),
        ("cachestats_overhead", "disabled-cachestats"),
    ):
        overhead = document[key]
        if not overhead["passed"]:
            print(
                f"\nFAIL: {label} overhead {overhead['worst_ratio']:.4f} exceeds "
                f"the {overhead['threshold']:.2f} gate",
                file=sys.stderr,
            )
            return 1
    equivalence = document.get("engine_equivalence") or {}
    if "skipped" not in equivalence and not equivalence.get("identical", True):
        print(
            "\nFAIL: columnar engine results diverged from the object engine",
            file=sys.stderr,
        )
        return 1
    for key, label, metric in (
        ("engine_speedup", "engine routing speedup", "worst_routing_speedup"),
        ("engine_memory", "engine bytes/node", "bytes_per_node"),
    ):
        section = document.get(key) or {}
        if "skipped" not in section and not section.get("passed", True):
            print(
                f"\nFAIL: {label} {section[metric]} misses the "
                f"{section['threshold']} gate",
                file=sys.stderr,
            )
            return 1
    if baseline is not None:
        ungated = ungated_micro(baseline, document)
        if ungated:
            print(f"\nnot gated (no entry in {args.check}): {', '.join(ungated)}")
        regressions = find_regressions(baseline, document, threshold=args.threshold)
        if regressions:
            print(f"\n{len(regressions)} regression(s) vs {args.check}:", file=sys.stderr)
            for regression in regressions:
                print(f"  {regression.describe()}", file=sys.stderr)
            return 1
        print(f"\nno regressions vs {args.check} (threshold {args.threshold:.1f}x)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.robustness import (
        RobustnessPreset,
        robustness,
        rows_to_json,
        rows_to_table,
    )

    preset = (
        RobustnessPreset.smoke(args.seed, workload=args.workload)
        if args.smoke
        else RobustnessPreset.quick(args.seed, workload=args.workload)
    )
    watch = Stopwatch()
    rows = robustness(preset, jobs=args.jobs)
    print(rows_to_table(rows))
    if args.json:
        write_json_atomic(args.json, rows_to_json(rows, preset, wall_time_s=round(watch.elapsed, 3)))
        print(f"\ngrid written to {args.json}")
    print(f"\n[{preset.name} preset, {watch}]")
    # The robustness claim this command guards: frequency-aware selection
    # must keep a positive hop reduction under >= 5% message loss.
    losers = [
        row
        for row in rows
        if row.axis == "loss" and row.value >= 0.05 and row.improvement_pct <= 0.0
    ]
    if losers:
        for row in losers:
            print(
                f"FAIL: {row.overlay} loses at loss={row.value:g} "
                f"({row.improvement_pct:.1f}% reduction)",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.experiments.workload import (
        WorkloadPreset,
        cache_rows_to_table,
        gate_messages,
        rows_to_json,
        rows_to_table,
        run_workloads,
    )

    preset = (
        WorkloadPreset.smoke(args.seed) if args.smoke else WorkloadPreset.quick(args.seed)
    )
    watch = Stopwatch()
    rows, cache_rows = run_workloads(preset, jobs=args.jobs)
    print("selection policies per workload scenario (mean hops):")
    print(rows_to_table(rows))
    print()
    print("item caching vs pointer caching per scenario (§II-C grid):")
    print(cache_rows_to_table(cache_rows))
    if args.json:
        write_json_atomic(
            args.json,
            rows_to_json(rows, cache_rows, preset, wall_time_s=round(watch.elapsed, 3)),
        )
        print(f"\nworkload document written to {args.json}")
    print(f"\n[{preset.name} preset, {watch}]")
    # Gates: frequency-aware selection must win on the skewed stationary
    # scenario, and adaptive refresh must keep a win on every scenario.
    failures = gate_messages(rows)
    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    from repro.experiments.allocation import (
        AllocationPreset,
        allocation,
        gate_messages,
        load_gate_messages,
        measured_gate_messages,
        plans_to_table,
        rows_to_json,
        rows_to_table,
    )

    factory = AllocationPreset.smoke if args.smoke else AllocationPreset.quick
    preset = factory(args.seed, workload=args.workload, loads=args.loads)
    watch = Stopwatch()
    plans, rows = allocation(preset, jobs=args.jobs)
    print("predicted eq.-1 network cost at equal total budget:")
    print(plans_to_table(plans))
    print()
    print("measured mean hops per scenario:")
    print(rows_to_table(rows))
    if args.json:
        write_json_atomic(
            args.json, rows_to_json(plans, rows, preset, wall_time_s=round(watch.elapsed, 3))
        )
        print(f"\nallocation document written to {args.json}")
    print(f"\n[{preset.name} preset, {watch}]")
    # Gates: the allocated plan must strictly beat uniform on predicted
    # cost for every overlay (convexity guarantees it — a miss means a
    # broken allocator), must win measured hops on at least one scenario
    # per overlay, and with --loads measured the load-aware plan must
    # strictly beat the load-blind plan under the measured curves.
    failures = (
        gate_messages(plans) + measured_gate_messages(rows) + load_gate_messages(plans)
    )
    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_cachestats(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_chart import render_series_table
    from repro.experiments.cachestats import (
        CachestatsPreset,
        cells_to_json,
        cells_to_table,
        gate_messages,
        run_cachestats,
        top_pointers_table,
        utilization_series,
    )

    factory = CachestatsPreset.smoke if args.smoke else CachestatsPreset.quick
    preset = factory(args.seed, workload=args.workload)
    watch = Stopwatch()
    cells = run_cachestats(preset, jobs=args.jobs)
    print("per-pointer-class accounting (clean measurement pass):")
    print(cells_to_table(cells))
    print()
    print("per-node quota utilization and measured load (ascending node id):")
    print(render_series_table(utilization_series(cells)))
    print()
    print(f"top {args.top} pointers by credited hop savings:")
    print(top_pointers_table(cells, args.top))
    print()
    for cell in cells:
        ledger = cell["conservation"]
        churn = cell["churn"]
        print(
            f"{cell['overlay']}: {ledger['attributed']}/{ledger['lookups']} lookups "
            f"attributed, credited {ledger['credited']} of "
            f"{ledger['oblivious_hops'] - ledger['observed_hops']} saved hops "
            f"(conservation {'exact' if ledger['exact'] else 'VIOLATED'}); "
            f"churn probe: {churn['crashed']} crashed, "
            f"{churn['stale_uses']} stale uses in {churn['lookups']} lookups"
        )
    if args.json:
        write_json_atomic(args.json, cells_to_json(cells, preset, wall_time_s=round(watch.elapsed, 3)))
        print(f"\ncachestats document written to {args.json}")
    print(f"\n[{preset.name} preset, {watch}]")
    failures = gate_messages(cells)
    if failures:
        for message in failures:
            print(f"FAIL: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.faults.schedule import FaultSchedule
    from repro.obs.driver import trace_cell
    from repro.sim.runner import ExperimentConfig

    schedule = None
    if args.loss > 0.0 or args.burst > 0:
        schedule = FaultSchedule(loss_rate=args.loss, crash_burst_size=args.burst)
    config = ExperimentConfig(
        overlay=args.overlay,
        n=args.n,
        k=args.k,
        alpha=args.alpha,
        bits=args.bits,
        queries=args.queries,
        seed=args.seed,
        faults=schedule,
    )
    watch = Stopwatch()
    document = trace_cell(config, policy=args.policy, sample=args.sample)
    stats = document["stats"]
    print(
        f"traced {stats['lookups']} {args.overlay} lookups "
        f"(policy={args.policy}, n={args.n}, seed={args.seed}): "
        f"mean hops {stats['mean_hops']:.3f}, "
        f"failure rate {stats['failure_rate']:.4f}, "
        f"timeout rate {stats['timeout_rate']:.4f}"
    )
    print(_render_hop_classes(document["counters"]))
    if document["counters"]["timeouts_by_verdict"]:
        verdicts = ", ".join(
            f"{verdict}={count}"
            for verdict, count in sorted(document["counters"]["timeouts_by_verdict"].items())
        )
        print(f"timeout verdicts: {verdicts}")
    kept = document["traces"]
    shown = kept[: max(0, args.paths)]
    if shown:
        print(
            f"\nper-lookup paths ({len(shown)} of {document['kept']} kept, "
            f"{document['seen']} seen):"
        )
        for trace in shown:
            print(_render_trace(trace))
    if args.json:
        document["manifest"]["volatile"]["wall_time_s"] = round(watch.elapsed, 3)
        write_json_atomic(args.json, document)
        print(f"\ntrace document written to {args.json}")
    print(f"\n[{watch}]")
    return 0


def _render_hop_classes(counters: dict) -> str:
    """Aligned pointer-class breakdown of every forward in the cell."""
    hops = counters["hops_by_class"]
    total = sum(hops.values()) or 1
    lines = ["hop breakdown by pointer class:"]
    for name, count in sorted(hops.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {name:<10} {count:>8}  {100.0 * count / total:5.1f}%")
    return "\n".join(lines)


def _render_trace(trace: dict) -> str:
    """One kept lookup as an indented per-hop path dump."""
    status = "ok" if trace["succeeded"] else "FAILED"
    header = (
        f"  key={trace['key']} source={trace['source']} dest={trace['destination']} "
        f"hops={trace['hops']} timeouts={trace['timeouts']} {status}"
    )
    lines = [header]
    for index, event in enumerate(trace["events"], start=1):
        if event["delivered"]:
            outcome = "delivered"
        else:
            verdicts = ",".join(event["verdicts"]) or "timeout"
            outcome = f"EVICTED ({verdicts})"
        retry = f" attempts={event['attempts']}" if event["attempts"] > 1 else ""
        penalty = f" penalty=+{event['penalty']:g}" if event["penalty"] else ""
        lines.append(
            f"    hop {index}: {event['forwarder']} -> {event['target']} "
            f"[{event['pointer_class']}] {outcome}{retry}{penalty}"
        )
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.verify import check_scenarios, replay_failure

    watch = Stopwatch()
    if args.replay:
        report = replay_failure(args.replay)
        scenario = report.scenario
        print(
            f"replayed {scenario.overlay} scenario "
            f"(n={scenario.n}, bits={scenario.bits}, k={scenario.k}, "
            f"seed={scenario.seed}, {len(scenario.steps)} steps)"
        )
        if report.passed:
            print("replay PASSED: the recorded violation no longer reproduces")
            return 0
        for violation in report.violations:
            print(
                f"  step {violation.step}: {violation.invariant}: {violation.message}",
                file=sys.stderr,
            )
        print(
            f"replay FAILED: {len(report.violations)} violation(s) reproduced",
            file=sys.stderr,
        )
        return 1

    count = 25 if args.smoke else args.scenarios
    document = check_scenarios(count, args.seed, args.overlay)
    print(
        f"checked {document['scenarios']} scenarios "
        f"({document['overlay']} overlays, seed {document['seed']}): "
        f"{document['lookups']} lookups verified"
    )
    print("invariant evaluations:")
    for name, evaluations in document["checks"].items():
        print(f"  {name:<24} {evaluations:>8}")
    if args.json:
        document["manifest"]["volatile"]["wall_time_s"] = round(watch.elapsed, 3)
        write_json_atomic(args.json, document)
        print(f"\ncheck document written to {args.json}")
    print(f"\n[{watch}]")
    if document["passed"]:
        print("all invariants held")
        return 0
    failures = document["failures"]
    for failure in failures:
        violation = failure["violation"]
        print(
            f"FAIL (scenario {failure['scenario_index']}): "
            f"{violation['invariant']}: {violation['message']}",
            file=sys.stderr,
        )
    shrunk = [failure for failure in failures if failure.get("schema")]
    if shrunk and args.repro:
        write_json_atomic(args.repro, shrunk[0])
        print(
            f"shrunk repro written to {args.repro} "
            f"(replay with: repro check --replay {args.repro})",
            file=sys.stderr,
        )
    print(
        f"{document['scenarios_failed']} of {document['scenarios']} scenarios failed",
        file=sys.stderr,
    )
    return 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.faults.schedule import FaultSchedule
    from repro.sim.runner import ChurnConfig, ExperimentConfig
    from repro.telemetry.driver import metrics_document
    from repro.telemetry.export import to_openmetrics, write_metrics

    schedule = None
    if args.loss > 0.0 or args.burst > 0:
        schedule = FaultSchedule(loss_rate=args.loss, crash_burst_size=args.burst)
    # --smoke shrinks the cell to CI scale; it is still a fixed (config,
    # seed), so smoke documents are byte-identical across runs and jobs.
    n = 64 if args.smoke else args.n
    rounds = min(args.rounds, 6) if args.smoke else args.rounds
    watch = Stopwatch()
    if args.churn:
        duration = 240.0 if args.smoke else args.duration
        config = ChurnConfig(
            overlay=args.overlay,
            n=n,
            k=args.k,
            alpha=args.alpha,
            bits=args.bits,
            seed=args.seed,
            duration=duration,
            warmup=min(duration / 4, 300.0),
            faults=schedule,
            workload=args.workload,
        )
    else:
        config = ExperimentConfig(
            overlay=args.overlay,
            n=n,
            k=args.k,
            alpha=args.alpha,
            bits=args.bits,
            queries=1500 if args.smoke else args.queries,
            seed=args.seed,
            faults=schedule,
            workload=args.workload,
        )
    document = metrics_document(config, rounds=rounds, jobs=args.jobs)
    print(_render_metrics_dashboard(document))
    document["manifest"]["volatile"]["wall_time_s"] = round(watch.elapsed, 3)
    if args.json:
        write_metrics(document, args.json)
        print(f"\nmetrics document written to {args.json}")
    if args.openmetrics:
        write_json_atomic(args.openmetrics, to_openmetrics(document))
        print(f"openmetrics exposition written to {args.openmetrics}")
    print(f"\n[{watch}]")
    return 0


def _render_metrics_dashboard(document: dict) -> str:
    """One-screen ASCII dashboard of a METRICS_v1 document: per-round
    sparkline table per policy, latency histogram, span profile."""
    clock = document["round_clock"]
    lines = [
        f"METRICS_v1: {document['overlay']} {document['mode']} cell, "
        f"round clock = {clock['rounds']} "
        + (
            f"virtual-time intervals of {clock['interval_s']:g}s"
            if document["mode"] == "churn"
            else f"query chunks of ~{clock['queries'] // clock['rounds']}"
        )
    ]
    for cell in document["cells"].values():
        lines.append("")
        lines.extend(_render_metrics_cell(cell))
    return "\n".join(lines)


def _render_metrics_cell(cell: dict) -> list[str]:
    from repro.analysis.ascii_chart import render_series_table, render_sparkline

    entries: dict[str, dict] = {}
    extra_totals: list[tuple[str, object]] = []
    for entry in cell["metrics"]:
        labels = {
            key: value
            for key, value in entry["labels"].items()
            if key not in ("overlay", "policy")
        }
        if labels:
            suffix = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
            entries[f"{entry['name']}{{{suffix}}}"] = entry
        else:
            entries[entry["name"]] = entry
    stats = cell["stats"]
    mean = stats["mean_hops"]
    lines = [
        f"policy {cell['policy']}: {stats['lookups']} lookups, "
        f"mean hops {mean if mean is None else format(mean, '.3f')}, "
        f"failure rate {stats['failure_rate']:.4f}, "
        f"timeout rate {stats['timeout_rate']:.4f}"
    ]
    rows = []
    for label, name in (
        ("cost/lookup", "repro_round_cost"),
        ("timeout rate", "repro_round_timeout_rate"),
        ("failure rate", "repro_round_failure_rate"),
        ("lookups/round", "repro_round_lookups"),
        ("alive nodes", "repro_alive_nodes"),
    ):
        entry = entries.get(name)
        if entry is not None and entry["series"]:
            rows.append((label, [value for __, value in entry["series"]]))
    if rows:
        lines.extend("  " + line for line in render_series_table(rows).splitlines())
    hist = entries.get("repro_lookup_cost")
    if hist is not None and hist["series"]:
        __, cumulative, total, count = hist["series"][-1]
        deltas = [cumulative[0]] + [
            cumulative[index] - cumulative[index - 1]
            for index in range(1, len(cumulative))
        ]
        lines.append(
            f"  cost histogram {render_sparkline(deltas)} "
            f"(count={count}, sum={total}, edges {hist['edges'][0]:g}..{hist['edges'][-1]:g},+Inf)"
        )
    for prefix, title in (
        ("repro_faults_injected_total{", "faults injected"),
        ("repro_churn_transitions_total{", "churn transitions"),
    ):
        totals = [
            (key[key.index("=") + 1 : -1], entry["value"])
            for key, entry in sorted(entries.items())
            if key.startswith(prefix)
        ]
        if totals:
            lines.append(
                f"  {title}: "
                + ", ".join(f"{kind}={value}" for kind, value in totals)
            )
    spans = cell["spans"]
    if spans["counts"]:
        lines.append(
            "  spans: "
            + ", ".join(f"{name} x{count}" for name, count in spans["counts"].items())
        )
    if spans["work"]:
        lines.append(
            "  work:  "
            + ", ".join(f"{name}={value:g}" for name, value in spans["work"].items())
        )
    return lines


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_report
    from repro.util.parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    print(f"running figures {', '.join(args.figures)} with {jobs} worker(s)", flush=True)
    watch = Stopwatch()
    run_report(figures=args.figures, jobs=jobs, out_dir=args.out_dir, echo=print)
    print(f"report written to {args.out_dir}/ [{watch}]")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.sim.runner import ExperimentConfig, run_stable

    config = ExperimentConfig(overlay="chord", n=128, bits=20, queries=3000, seed=1)
    # The banner derives from the actual config — alpha and workload were
    # once hardcoded here and silently went stale when defaults moved.
    print(
        f"Building a {config.n}-node Chord ring, "
        f"{_describe_workload(config)} workload, k = log n ..."
    )
    result = run_stable(config)
    print(result.summary())
    print("Now the same on Pastry with locality-aware routing ...")
    result = run_stable(
        ExperimentConfig(overlay="pastry", n=128, bits=20, queries=3000, seed=1)
    )
    print(result.summary())
    print("Run `python -m repro figure 5` to regenerate a full evaluation figure.")
    return 0


def _describe_workload(config) -> str:
    """Human-readable workload description for banners, derived from the
    config's parsed :class:`~repro.workload.spec.WorkloadSpec`."""
    spec = config.workload_spec
    if spec.is_static:
        return f"zipf({config.alpha:g})"
    return spec.describe()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figure": _cmd_figure,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "faults": _cmd_faults,
        "workload": _cmd_workload,
        "allocate": _cmd_allocate,
        "cachestats": _cmd_cachestats,
        "trace": _cmd_trace,
        "check": _cmd_check,
        "metrics": _cmd_metrics,
        "report": _cmd_report,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
