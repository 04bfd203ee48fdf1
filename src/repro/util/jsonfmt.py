"""Helpers for writing strict JSON documents."""

from __future__ import annotations

import json
import math
import os
import pathlib
import uuid

__all__ = ["json_float", "write_json_atomic"]


def json_float(value: float) -> float | None:
    """NaN is not valid strict JSON; degrade it to ``null``."""
    return None if isinstance(value, float) and math.isnan(value) else value


def write_json_atomic(path, payload) -> pathlib.Path:
    """Write ``payload`` to ``path`` atomically and return the path.

    A ``str`` payload is written as is (a document its writer already
    serialized); anything else is rendered as canonical JSON
    (``indent=2``, sorted keys, trailing newline). The text goes to a
    temporary file in the same directory, which then replaces ``path``
    in one ``os.replace``: a serialization error, a failed write or an
    interrupt leaves the previous file byte-identical and no temporary
    file behind.
    """
    path = pathlib.Path(path)
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True) + "\n"
    temporary = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path
