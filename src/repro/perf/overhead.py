"""Disabled-cost benchmark: switched-off observation must be (nearly) free.

Every observation plane rides the routers' ``TraceRecorder`` protocol
or the overlays' telemetry hook, and every layer normalizes a disabled
recorder or runtime to ``None`` at entry. So routing with observation
switched off must run at the same speed as routing with none at all.
One paired routine certifies that claim for each plane, as one section
of the bench document each (:data:`OVERHEAD_SECTIONS`):

* ``obs_overhead`` — lookups carrying ``trace=NullRecorder()``;
* ``telemetry_overhead`` — lookups on an overlay with a disabled
  :class:`~repro.telemetry.runtime.RoundTelemetry` attached;
* ``cachestats_overhead`` — lookups carrying a disabled
  :class:`~repro.obs.attribution.AttributionRecorder`.

The CI gate enforces < 2% (:data:`OVERHEAD_THRESHOLD`) on each.

Methodology — a 2% bar needs care on shared hardware:

* Comparing against a *committed* baseline file would measure the
  machine difference, not the code difference, so both variants are
  measured in the same process on the same overlay and the same
  (source, key) stream (fault-free lookups with ``record_access=False``
  mutate nothing, so sharing the overlay is exact).
* The dominant noise is **multiplicative CPU-speed drift** over
  ~10–100 ms windows (steal time, frequency scaling), which neither
  minima nor whole-pass pairing survive. The lookup stream is therefore
  split into sub-millisecond **chunks**, and each chunk is timed under
  both variants back to back (alternating order), so every base/variant
  pair shares one speed regime and the drift divides out of the
  per-trial total ratio.
* GC is paused during measurement, several independent trials are run,
  and the **median trial ratio** per overlay is the gated number.

:func:`disabled_telemetry` is a deliberate seam: the mutation test in
``tests/telemetry`` monkeypatches it to return an *enabled* runtime and
asserts the gate then fails — proving a leaky disabled path cannot slip
past CI silently.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable

from repro.chord.ring import ChordRing
from repro.obs.attribution import AttributionRecorder
from repro.obs.recorder import NullRecorder
from repro.pastry.network import PastryNetwork
from repro.perf.harness import percentile
from repro.telemetry.runtime import RoundTelemetry
from repro.util.ids import IdSpace
from repro.util.rng import SeedSequenceRegistry

__all__ = ["OVERHEAD_SECTIONS", "OVERHEAD_THRESHOLD", "disabled_telemetry", "paired_overhead"]

_BENCH_SEED = 20_240_701  # same workloads as repro.perf.micro

#: Acceptance bar: switched-off observation may cost at most 2% extra.
OVERHEAD_THRESHOLD = 1.02


def disabled_telemetry() -> RoundTelemetry:
    """The disabled runtime the telemetry section measures (monkeypatch
    seam for the leaky-registry mutation test)."""
    return RoundTelemetry.disabled()


# A variant maps (overlay kind, overlay) to the (recorder, telemetry)
# pair its lookups run under; a fresh pair is drawn for every trial.


def _null_variant(kind: str, overlay):
    return NullRecorder(), None


def _telemetry_variant(kind: str, overlay):
    telemetry = disabled_telemetry()
    return (telemetry.recorder if telemetry.enabled else None), telemetry


def _attribution_variant(kind: str, overlay):
    return AttributionRecorder(kind, overlay, attribute=False, enabled=False), None


@dataclass(frozen=True)
class OverheadSection:
    """One gated section: the variant and its per-overlay timing plan."""

    variant: Callable
    #: overlay -> (trials, rounds). Chord lookups are ~5x cheaper than
    #: Pastry's, so a chord trial sees ~5x less work and proportionally
    #: more timing noise; it gets more rounds and trials (still a
    #: fraction of the pastry wall time).
    plans: dict[str, tuple[int, int]]
    #: Re-measures allowed for an overlay over the bar.
    remeasures: int


OVERHEAD_SECTIONS = {
    "obs_overhead": OverheadSection(
        _null_variant, {"chord": (15, 12), "pastry": (11, 8)}, remeasures=2
    ),
    "telemetry_overhead": OverheadSection(
        _telemetry_variant, {"chord": (15, 12), "pastry": (9, 6)}, remeasures=1
    ),
    "cachestats_overhead": OverheadSection(
        _attribution_variant, {"chord": (15, 12), "pastry": (11, 8)}, remeasures=2
    ),
}

_CHUNK = 5


def _build_workload(overlay_name: str, n: int, lookups: int, bits: int = 24):
    """One overlay plus its fixed (source, key) lookup stream."""
    if overlay_name == "chord":
        overlay = ChordRing.build(n, space=IdSpace(bits), seed=_BENCH_SEED)
        stream = "chord-lookups"
    else:
        overlay = PastryNetwork.build(n, space=IdSpace(bits), seed=_BENCH_SEED)
        stream = "pastry-lookups"
    rng = SeedSequenceRegistry(_BENCH_SEED).stream(stream)
    ids = overlay.alive_ids()
    pairs = [(rng.choice(ids), rng.randrange(1 << bits)) for _ in range(lookups)]
    return overlay, pairs


def _trial_ratio(overlay, pairs, chunk: int, rounds: int, recorder, telemetry=None) -> float:
    """One trial: variant-time / base-time over chunk-interleaved passes.

    The variant's lookups carry ``recorder``; ``telemetry`` is attached
    to the overlay around (never inside) each timed variant chunk.
    """
    chunks = [pairs[index : index + chunk] for index in range(0, len(pairs), chunk)]
    base_total = 0.0
    variant_total = 0.0
    for round_index in range(rounds):
        for chunk_index, piece in enumerate(chunks):
            # Alternate which variant leads per (round, chunk) so ordering
            # effects cancel over the trial.
            variant_first = (round_index + chunk_index) % 2 == 1
            for variant in ((1, 0) if variant_first else (0, 1)):
                if variant == 1:
                    overlay.attach_telemetry(telemetry)
                started = time.perf_counter()
                if variant == 0:
                    for source, key in piece:
                        overlay.lookup(source, key, record_access=False)
                else:
                    for source, key in piece:
                        overlay.lookup(source, key, record_access=False, trace=recorder)
                elapsed = time.perf_counter() - started
                if variant == 1:
                    overlay.attach_telemetry(None)
                    variant_total += elapsed
                else:
                    base_total += elapsed
    return variant_total / base_total


def _measure_overlay(
    overlay_name: str,
    n: int,
    lookups: int,
    trials: int,
    chunk: int,
    rounds: int,
    variant: Callable = _null_variant,
) -> dict:
    overlay, pairs = _build_workload(overlay_name, n, lookups)
    # Warm both code paths (allocator pools, branch caches) off the clock.
    recorder, _telemetry = variant(overlay_name, overlay)
    for source, key in pairs:
        overlay.lookup(source, key, record_access=False)
        overlay.lookup(source, key, record_access=False, trace=recorder)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        ratios = [
            _trial_ratio(overlay, pairs, chunk, rounds, *variant(overlay_name, overlay))
            for _ in range(trials)
        ]
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios.sort()
    return {
        "trials": trials,
        "chunk": chunk,
        "rounds": rounds,
        "ratios": [round(ratio, 5) for ratio in ratios],
        "min_ratio": ratios[0],
        "median_ratio": percentile(ratios, 0.5),
        "max_ratio": ratios[-1],
    }


def paired_overhead(section: str, smoke: bool = False) -> dict:
    """Measure one :data:`OVERHEAD_SECTIONS` variant on both routing loops.

    Returns that section of the bench document: per-overlay trial
    summaries, the worst median trial ratio, the threshold, and the
    pass/fail verdict the CLI gate enforces.
    """
    spec = OVERHEAD_SECTIONS[section]
    n = 128 if smoke else 256
    lookups = 300 if smoke else 600

    def measure(name: str) -> dict:
        trials, rounds = spec.plans[name]
        return _measure_overlay(name, n, lookups, trials, _CHUNK, rounds, spec.variant)

    results = {name: measure(name) for name in spec.plans}
    # Residual noise is per-*run* drift (layout, steal-time regime), so a
    # single failing measurement is weak evidence. Re-measure an overlay
    # over the bar and keep the cleanest run: a true regression fails
    # every pass, a noise spike almost never does.
    for name in results:
        for _retry in range(spec.remeasures):
            if results[name]["median_ratio"] < OVERHEAD_THRESHOLD:
                break
            retry_entry = measure(name)
            if retry_entry["median_ratio"] < results[name]["median_ratio"]:
                retry_entry["remeasured"] = True
                results[name] = retry_entry
            else:
                results[name]["remeasured"] = True
    worst = max(entry["median_ratio"] for entry in results.values())
    return {
        "n": n,
        "lookups": lookups,
        "overlays": results,
        "worst_ratio": worst,
        "threshold": OVERHEAD_THRESHOLD,
        "passed": worst < OVERHEAD_THRESHOLD,
    }
