"""Round-clocked telemetry cells: run an instrumented comparison.

:func:`metrics_cell` replays exactly the universe the runners build for
one policy — same registry substreams, same overlay, same workload, same
fault/churn realization — with a fresh :class:`RoundTelemetry` attached.
Telemetry only observes, so the cell's summary statistics are
bit-identical to the uninstrumented run; ``tests/telemetry`` pins this.

:func:`metrics_document` fans the two policies over worker processes
with the same order-preserving, seed-rebuilding machinery as the other
drivers, then assembles the ``METRICS_v1`` document. Because every task
rebuilds its own seeds and the registry samples on the round clock (never
wall time), the stripped document is byte-identical at any ``--jobs``.
"""

from __future__ import annotations


from repro.sim.metrics import HopStatistics
from repro.sim.runner import (
    _POLICIES,
    ChurnConfig,
    ExperimentConfig,
    _round_boundaries,
    _run_churn_once,
    _stable_policy,
)
from repro.telemetry.export import build_metrics_document
from repro.telemetry.runtime import DEFAULT_ROUNDS, RoundTelemetry
from repro.util.errors import ConfigurationError
from repro.util.jsonfmt import json_float
from repro.util.parallel import run_tasks

__all__ = ["metrics_cell", "metrics_document"]


def _stats_summary(stats: HopStatistics) -> dict:
    return {
        "lookups": stats.lookups,
        "successes": stats.successes,
        "failures": stats.failures,
        "mean_hops": json_float(stats.mean_hops),
        "failure_rate": stats.failure_rate,
        "timeout_rate": stats.timeout_rate,
    }


def metrics_cell(config: ExperimentConfig, policy: str, rounds: int = DEFAULT_ROUNDS) -> dict:
    """Run one policy's universe with telemetry attached.

    Stable configs chunk the query stream into ``rounds`` near-equal
    rounds; :class:`~repro.sim.runner.ChurnConfig` configs sample at
    ``rounds`` equal virtual-time intervals. Returns a picklable cell
    payload: metric series, span profile, and summary statistics.
    """
    if policy not in _POLICIES:
        raise ConfigurationError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
    telemetry = RoundTelemetry(
        rounds=rounds,
        const_labels={"overlay": config.overlay, "policy": policy},
    )
    if isinstance(config, ChurnConfig):
        stats = _run_churn_once(config, policy, telemetry=telemetry)
    else:
        stats = _stable_policy(config, policy, telemetry=telemetry)[0]
    return {
        "policy": policy,
        "rounds_sampled": telemetry.registry.rounds_sampled,
        "metrics": telemetry.registry.to_payload(),
        "spans": telemetry.spans.to_dict(),
        "stats": _stats_summary(stats),
    }


def _metrics_task(task: tuple[ExperimentConfig, str, int]) -> dict:
    config, policy, rounds = task
    return metrics_cell(config, policy, rounds=rounds)


def metrics_document(
    config: ExperimentConfig,
    rounds: int = DEFAULT_ROUNDS,
    jobs: int | None = None,
) -> dict:
    """Run both policies (optionally in parallel) and assemble METRICS_v1.

    Each policy task rebuilds its own seed registry from the
    config-embedded seed, so the document is identical (manifest/span
    volatile blocks aside) at any worker count.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
    tasks = [(config, policy, rounds) for policy in _POLICIES]
    cells = run_tasks(_metrics_task, tasks, jobs=jobs)
    if isinstance(config, ChurnConfig):
        round_clock = {
            "mode": "churn",
            "rounds": rounds,
            "interval_s": config.duration / rounds,
            "duration_s": config.duration,
        }
    else:
        round_clock = {
            "mode": "stable",
            "rounds": rounds,
            "boundaries": _round_boundaries(config.queries, rounds),
            "queries": config.queries,
        }
    return build_metrics_document(
        config,
        {cell["policy"]: cell for cell in cells},
        round_clock,
    )
