"""Run one simulation cell in this (fresh) process and print one JSON line.

    python3 perfbench/cell.py --workload NAME --seed N --mode MODE --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide, so the two clocks agree). Modes:

* ``setup``: stop at the cell's first auxiliary recompute — a call of an
  overlay's ``recompute_auxiliary`` or ``recompute_all_auxiliary``,
  whichever comes first — and report only ``setup_s``, the time from
  ``--t0`` to that call;
* ``untraced``: run the whole cell through the public entry point with
  nothing attached but a one-shot hook that reads ``setup_s`` at the first
  auxiliary recompute and then puts the original methods back;
* ``traced``: run the whole cell under :class:`tracer.Tracer` and report
  per-layer self times, counts and the pointer-set digest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import OVERLAY_CLASSES, Tracer, targets
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _SetupDone(Exception):
    """Raised by the first-call hook in ``setup`` mode to end the cell."""


#: The calls that end set-up; whichever runs first is stamped.
_RECOMPUTES = ("recompute_auxiliary", "recompute_all_auxiliary")


class _FirstRecompute:
    """One-shot hook: stamps the first auxiliary recompute, then restores
    the original methods so the rest of the cell runs untouched."""

    def __init__(self, stop: bool) -> None:
        self.stop = stop
        self.at: float | None = None
        self._saved = []
        for module, name in OVERLAY_CLASSES:
            cls = getattr(importlib.import_module(module), name)
            for attr in _RECOMPUTES:
                self._saved.append((cls, attr, vars(cls).get(attr)))
                setattr(cls, attr, self._hook(getattr(cls, attr)))

    def _hook(self, original):
        def first_call(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
                self.restore()
            if self.stop:
                raise _SetupDone
            return original(*args, **kwargs)

        return first_call

    def restore(self) -> None:
        while self._saved:
            cls, attr, own = self._saved.pop()
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)

    def setup_s(self, t0: float) -> float:
        if self.at is None:
            raise SystemExit(f"perfbench: the cell never called {' or '.join(_RECOMPUTES)}")
        return self.at - t0


def _stats(statistics) -> dict:
    return {
        "lookups": statistics.lookups,
        "successes": statistics.successes,
        "failures": statistics.failures,
        "total_hops": statistics.total_hops,
        "total_timeouts": statistics.total_timeouts,
        "mean_hops": statistics.mean_hops,
    }


def simulated(result) -> dict:
    """The simulated outcome of a cell, as compared against the reference."""
    return {
        "optimized": _stats(result.optimized),
        "baseline": _stats(result.baseline),
        "improvement_pct": result.improvement,
    }


def import_package() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")


def run_traced(workload, seed: int) -> dict:
    originals = [(t.owner, t.attr, vars(t.owner).get(t.attr)) for t in targets()]
    with Tracer() as tracer:
        result = tracer.cell(workload.runner(), workload.config(seed))
    restored = all(vars(owner).get(attr) is original for owner, attr, original in originals)
    return {
        "cell_s": tracer.cell_seconds(),
        "self_s": tracer.self_times(),
        "calls": tracer.calls(),
        "counts": tracer.counts,
        "pointer_digest": tracer.pointer_digest,
        "restored": restored,
        "simulated": simulated(result),
    }


def run_untraced(workload, seed: int, t0: float, stop_at_setup: bool) -> dict:
    config = workload.config(seed)
    run = workload.runner()
    hook = _FirstRecompute(stop=stop_at_setup)
    try:
        start = time.perf_counter()
        result = run(config)
        cell_s = time.perf_counter() - start
    except _SetupDone:
        return {"setup_s": hook.setup_s(t0)}
    finally:
        hook.restore()
    return {
        "setup_s": hook.setup_s(t0),
        "cell_s": cell_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "simulated": simulated(result),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    import_package()
    workload = WORKLOADS[args.workload]
    if args.mode == "traced":
        out = run_traced(workload, args.seed)
    else:
        out = run_untraced(workload, args.seed, args.t0, stop_at_setup=args.mode == "setup")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
