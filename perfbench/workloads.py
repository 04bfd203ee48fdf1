"""The benchmark's workloads: one whole simulation comparison cell each.

Every workload is a pure function of the seed: the seed goes into the
cell config and nowhere else. Nothing here imports the simulator at
module level, so the driver can load this file without the package.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Workload"]

#: The seed the committed reference statistics were recorded at.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "stable" (run_stable) or "churn" (run_churn)
    params: tuple[tuple[str, object], ...]

    def config(self, seed: int):
        """The cell config at ``seed``."""
        from repro.sim.runner import ChurnConfig, ExperimentConfig

        cls = ChurnConfig if self.mode == "churn" else ExperimentConfig
        return cls(seed=seed, **dict(self.params))

    def runner(self):
        """The public entry point that runs this cell."""
        from repro.sim.runner import run_churn, run_stable

        return run_churn if self.mode == "churn" else run_stable

    @property
    def queries(self) -> int | None:
        """Measured lookups per policy of a stable cell (``None`` for churn)."""
        return dict(self.params)["queries"] if self.mode == "stable" else None


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Figure 5 stable cell at paper scale; the Chord solver dominates.
        Workload(
            "chord-stable",
            "stable",
            (
                ("overlay", "chord"),
                ("n", 1024),
                ("k", 10),
                ("alpha", 1.2),
                ("num_rankings", 5),
                ("bits", 32),
                ("queries", 5000),
                ("workload", "static-zipf"),
                ("engine", "auto"),
            ),
        ),
        # Lookup-heavy stable cell on object routers; routing dominates.
        Workload(
            "kademlia-lookups",
            "stable",
            (
                ("overlay", "kademlia"),
                ("n", 256),
                ("k", 8),
                ("alpha", 1.2),
                ("bits", 32),
                ("queries", 100_000),
                ("workload", "static-zipf"),
                ("engine", "auto"),
            ),
        ),
        # Section VI-C churn cell: online learning, per-node recomputes.
        Workload(
            "pastry-churn",
            "churn",
            (
                ("overlay", "pastry"),
                ("n", 256),
                ("k", 8),
                ("alpha", 1.2),
                ("bits", 32),
                ("pastry_mode", "proximity"),
                ("duration", 300.0),
                ("warmup", 75.0),
                ("workload", "static-zipf"),
            ),
        ),
    )
}
