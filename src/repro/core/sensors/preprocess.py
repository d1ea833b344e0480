"""Preprocessing operations: raw sample payload → scalar.

"Preprocessing operations distill the data before it is processed into
the desired metric ... useful when the input read from each process is
sizeable, for instance, a vector or multi-dimensional array" (§2.1).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import SensorError

Preprocess = Callable[[Any], float]


def _as_array(value: Any) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _identity(value: Any) -> float:
    arr = _as_array(value)
    if arr.ndim == 0:
        return float(arr)
    raise SensorError("IDENTITY preprocessing requires a scalar value")


PREPROCESS: dict[str, Preprocess] = {
    "IDENTITY": _identity,
    "NORM": lambda v: float(np.linalg.norm(_as_array(v))),
    "MEAN": lambda v: float(_as_array(v).mean()),
    "SUM": lambda v: float(_as_array(v).sum()),
    "MAX": lambda v: float(_as_array(v).max()),
    "MIN": lambda v: float(_as_array(v).min()),
    "ABSMAX": lambda v: float(np.abs(_as_array(v)).max()),
    "STD": lambda v: float(_as_array(v).std()),
}


def preprocess_value(op: str | None, value: Any) -> float:
    """Distill *value* with *op* (None = expect a scalar)."""
    if op is None:
        if isinstance(value, (int, float)):
            return float(value)  # what the array path returns, without the array
        return _identity(value)
    fn = PREPROCESS.get(op.upper())
    if fn is None:
        raise SensorError(f"unknown preprocessing op {op!r}; known: {sorted(PREPROCESS)}")
    arr = _as_array(value)
    if arr.size == 0:
        raise SensorError(f"preprocessing {op!r} over empty value")
    return float(fn(value))
