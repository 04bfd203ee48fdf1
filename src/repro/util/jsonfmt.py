"""Helpers for writing strict JSON documents."""

from __future__ import annotations

import math

__all__ = ["json_float"]


def json_float(value: float) -> float | None:
    """NaN is not valid strict JSON; degrade it to ``null``."""
    return None if isinstance(value, float) and math.isnan(value) else value
