"""Engine selection: objects vs columnar.

The ``engine`` field on :class:`~repro.sim.runner.ExperimentConfig`
accepts three values:

* ``"objects"`` — always route over the object-graph overlays.
* ``"columnar"`` — demand the vectorized engine; raises
  :class:`~repro.util.errors.ConfigurationError` with the blocking
  reason when the cell is unsupported (faults active, oversized id
  space, ...).
* ``"auto"`` (default) — columnar whenever :func:`columnar_support`
  allows it, objects otherwise. There is no size threshold: measured
  whole cells run as fast or faster columnar at every size tried
  (DESIGN.md §10), and both engines produce bit-identical results, so
  the object routers remain the verification oracle rather than a
  small-cell fast path.

Supportability is intentionally conservative. The columnar engine
freezes the overlay before routing, so anything that mutates routing
state mid-stream — fault planes (evictions, message drops), churn,
retry policies with observable backoff — stays on the object path.
Telemetry/trace instrumentation also forces objects: the per-hop
callback surface is exactly what the frontier batches away. Global
budget plans run on both engines: quotas only change which pointers are
installed, and the snapshot copies whatever tables the overlay holds.
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

__all__ = [
    "COLUMNAR_MAX_BITS",
    "ENGINES",
    "columnar_support",
    "resolve_engine",
]

ENGINES = ("auto", "objects", "columnar")

#: The vectorized routers hold ids in int64 and take bit lengths through
#: the float64 mantissa (``np.frexp``), which is exact only below 2**53.
#: 52 bits covers the paper's 32-bit spaces with a margin; larger spaces
#: stay on the object path (``IdSpace`` itself allows up to 256 bits).
COLUMNAR_MAX_BITS = 52


def columnar_support(config) -> tuple[bool, str]:
    """``(supported, reason)`` — can this stable cell run columnar?

    ``reason`` is empty when supported, else the first blocking rule
    (the message an explicit ``engine="columnar"`` request fails with).
    """
    if getattr(config, "duration", None) is not None and hasattr(config, "queries_per_second"):
        return False, "churn mode mutates routing state mid-stream"
    if config.faults_active:
        return False, "fault injection mutates routing state mid-stream"
    if config.retry is not None:
        return False, "an explicit retry policy is only observable on the object path"
    if config.bits > COLUMNAR_MAX_BITS:
        return False, (
            f"bits={config.bits} exceeds the columnar engine's exact-arithmetic "
            f"limit of {COLUMNAR_MAX_BITS}"
        )
    return True, ""


def resolve_engine(config, telemetry_active: bool = False) -> str:
    """Resolve ``config.engine`` to ``"objects"`` or ``"columnar"``.

    ``telemetry_active`` marks a run with an enabled telemetry runtime or
    trace recorder attached; the columnar engine has no per-hop
    instrumentation surface, so telemetry forces (or, for explicit
    ``columnar``, refuses) objects.
    """
    engine = getattr(config, "engine", "auto")
    if engine == "objects":
        return "objects"
    supported, reason = columnar_support(config)
    if engine == "columnar":
        if telemetry_active:
            raise ConfigurationError(
                "engine='columnar' cannot run with telemetry or tracing attached: the "
                "vectorized frontier has no per-hop instrumentation surface"
            )
        if not supported:
            raise ConfigurationError(f"engine='columnar' unsupported for this cell: {reason}")
        return "columnar"
    # auto
    if telemetry_active or not supported:
        return "objects"
    return "columnar"
