"""Monitoring samples and payload sizing."""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np


class Sample(NamedTuple):
    """One observation emitted by a data source and consumed by sensors.

    An immutable tuple-backed record (no per-instance ``__dict__``): one is
    built per rank per application step, so construction cost is step cost.

    Every source type in the paper — profiler streams, application ADIOS2
    output, disk scans, error-status files — reduces to a stream of these:

    Attributes:
        time: when the observation was produced (simulated seconds).
        workflow_id: owning workflow.
        task: workflow task name (e.g. ``"Isosurface"``).
        rank: producing process rank within the task (0-based); -1 for
            task-level observations with no per-process identity.
        node_id: compute node hosting the producing process ("" if n/a).
        var: variable name (e.g. ``"looptime"``, ``"nsteps"``).
        value: scalar or array payload.
        step: application step the observation belongs to (-1 if n/a).
    """

    time: float
    workflow_id: str
    task: str
    rank: int
    node_id: str
    var: str
    value: Any
    step: int = -1

    def scalar(self) -> float:
        """The payload as a float (arrays are not scalars)."""
        if isinstance(self.value, (int, float, np.integer, np.floating)):
            return float(self.value)
        raise TypeError(f"sample value for {self.var!r} is not scalar: {type(self.value).__name__}")


def estimate_nbytes(value: Any) -> int:
    """Approximate wire size of a payload, for transfer-time modelling."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, (list, tuple)):
        return sum(estimate_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(estimate_nbytes(k) + estimate_nbytes(v) for k, v in value.items())
    return 64  # conservative default for odd payloads
