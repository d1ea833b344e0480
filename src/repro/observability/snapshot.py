"""Periodic metrics snapshots into the run's record.

The :class:`MetricsSnapshotter` appends the full
:class:`~repro.telemetry.metrics.MetricsRegistry` snapshot as a
``kind="metrics"`` tracer record on a fixed runtime-clock cadence — sim
seconds under the simulated driver, wall seconds under the threaded one.
The next-due time is part of the crash-recovery state so a resumed run
snapshots at exactly the instants the uninterrupted run would have.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.tracer import Tracer

_EPS = 1e-9


class MetricsSnapshotter:
    """Record registry snapshots every ``every`` runtime seconds."""

    def __init__(self, tracer: Tracer, every: float) -> None:
        self.tracer = tracer
        self.every = float(every)
        self._next = 0.0
        self.emitted = 0

    @property
    def enabled(self) -> bool:
        return self.every > 0.0 and self.tracer.enabled

    def maybe_snapshot(self, now: float) -> bool:
        """Emit a snapshot if one is due; returns whether one was emitted."""
        if not self.enabled or now + _EPS < self._next:
            return False
        self.tracer.record("metrics", now, seq=self.emitted, metrics=self.tracer.metrics.snapshot())
        self.emitted += 1
        while self._next <= now + _EPS:
            self._next += self.every
        return True

    def state_dict(self) -> dict[str, Any]:
        return {"next": self._next, "emitted": self.emitted}

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self._next = float(state.get("next", 0.0))
        self.emitted = int(state.get("emitted", 0))
