"""Shared utilities: id-space arithmetic, RNG streams, validation, errors,
strict-JSON helpers."""

from repro.util.errors import (
    ConfigurationError,
    IdSpaceError,
    InfeasibleConstraintError,
    LookupFailedError,
    NodeAbsentError,
    ReproError,
    RoutingError,
    SelectionError,
    SimulationError,
)
from repro.util.ids import DEFAULT_BITS, IdSpace
from repro.util.jsonfmt import json_float
from repro.util.rng import SeedSequenceRegistry, substream_seed

__all__ = [
    "ConfigurationError",
    "DEFAULT_BITS",
    "IdSpace",
    "IdSpaceError",
    "InfeasibleConstraintError",
    "LookupFailedError",
    "NodeAbsentError",
    "ReproError",
    "RoutingError",
    "SeedSequenceRegistry",
    "SelectionError",
    "SimulationError",
    "json_float",
    "substream_seed",
]
