"""Small argument-validation helpers used across the library.

These keep the public constructors short and make error messages uniform.
All helpers raise :class:`repro.util.errors.ConfigurationError`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.util.errors import ConfigurationError

__all__ = [
    "require",
    "require_positive_int",
    "require_non_negative_int",
    "require_positive",
    "require_probability",
    "require_unique",
    "require_weight",
    "require_frequencies",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an ``int`` greater than zero."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def require_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is an ``int`` greater than or equal to zero."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number greater than zero."""
    try:
        ok = value > 0 and value == value and value != float("inf")
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    try:
        ok = 0.0 <= value <= 1.0
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def require_unique(values: Iterable[int], name: str) -> list[int]:
    """Validate that ``values`` contains no duplicates; return it as a list."""
    items = list(values)
    if len(set(items)) != len(items):
        raise ConfigurationError(f"{name} contains duplicate entries")
    return items


def require_weight(value: float, name: str) -> float:
    """Validate one access frequency: the rule :func:`require_frequencies`
    applies to every weight of a mapping (finite and non-negative)."""
    try:
        ok = value >= 0 and value != float("inf")
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def require_frequencies(frequencies: Mapping[int, float], name: str = "frequencies") -> None:
    """Validate a peer-frequency mapping: finite, non-negative weights."""
    for peer, weight in frequencies.items():
        if not isinstance(peer, int) or isinstance(peer, bool):
            raise ConfigurationError(f"{name} key {peer!r} is not an integer id")
        if not (weight >= 0) or weight == float("inf"):
            raise ConfigurationError(f"{name}[{peer}] must be a finite non-negative number, got {weight!r}")
