"""SLO evaluation and anomaly detection with firing/clearing semantics.

Evaluators are plain state machines over the health engine's evaluation
cadence: an :class:`SloEvaluator` tracks consecutive violating/healthy
evaluations of one :class:`~repro.observability.spec.SloSpec`; an
:class:`EwmaDetector` scores each value's z-score against an
EWMA-smoothed rolling window.  Both emit typed :class:`HealthAlert`
records on state *transitions* only (firing / clearing), are pure
functions of the value sequence (deterministic under the sim clock), and
serialize their full state for the crash-recovery journal so alerts
never double-fire across a WAL replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.observability.spec import AnomalySpec, SloSpec


@dataclass(frozen=True)
class HealthAlert:
    """One health state transition.

    Attributes:
        time: runtime-clock instant of the evaluation that transitioned.
        source: alert identity (``slo:<metric>.<stat>`` or
            ``anomaly:<metric>.<stat>``).
        kind: ``"firing"`` or ``"clearing"``.
        severity: from the owning spec.
        value: the metric value at the transition.
        threshold: the objective bound (for anomalies, the z threshold).
        message: human-readable one-liner.
    """

    time: float
    source: str
    kind: str
    severity: str
    value: float
    threshold: float
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
            "severity": self.severity,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }

    def to_record(self) -> dict[str, Any]:
        """The run-log line; the alert's own ``kind`` (firing/clearing) is
        inside, under ``alert``."""
        return {"kind": "alert", "time": self.time, "alert": self.to_dict()}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HealthAlert":
        return cls(
            time=float(d["time"]),
            source=d["source"],
            kind=d["kind"],
            severity=d["severity"],
            value=float(d["value"]),
            threshold=float(d["threshold"]),
            message=d.get("message", ""),
        )


class SloEvaluator:
    """Streak-counting evaluator for one SLO objective."""

    def __init__(self, spec: SloSpec) -> None:
        spec.validate()
        self.spec = spec
        self.firing = False
        self._bad_streak = 0
        self._good_streak = 0
        #: Moves whenever the journaled state does (``state_dict``).
        self.revision = 0

    @property
    def source(self) -> str:
        return f"slo:{self.spec.key}"

    def evaluate(self, now: float, value: float | None) -> HealthAlert | None:
        """Feed one observation; returns an alert on a state transition.

        ``value=None`` (metric not yet observed) leaves the streaks and
        the firing state untouched.
        """
        if value is None:
            return None
        self.revision += 1
        spec = self.spec
        if spec.healthy(value):
            self._good_streak += 1
            self._bad_streak = 0
            if self.firing and self._good_streak >= spec.clear_after:
                self.firing = False
                return HealthAlert(
                    time=now, source=self.source, kind="clearing",
                    severity=spec.severity, value=value, threshold=spec.threshold,
                    message=(
                        f"{spec.key} back within objective "
                        f"({spec.op} {spec.threshold:g}): {value:g}"
                    ),
                )
        else:
            self._bad_streak += 1
            self._good_streak = 0
            if not self.firing and self._bad_streak >= spec.fire_after:
                self.firing = True
                return HealthAlert(
                    time=now, source=self.source, kind="firing",
                    severity=spec.severity, value=value, threshold=spec.threshold,
                    message=(
                        f"{spec.key} violates objective "
                        f"({spec.op} {spec.threshold:g}): {value:g}"
                    ),
                )
        return None

    def state_dict(self) -> dict[str, Any]:
        return {
            "firing": self.firing,
            "bad": self._bad_streak,
            "good": self._good_streak,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self.revision += 1
        self.firing = bool(state.get("firing", False))
        self._bad_streak = int(state.get("bad", 0))
        self._good_streak = int(state.get("good", 0))


class EwmaDetector:
    """Rolling-window z-score detector with EWMA smoothing."""

    def __init__(self, spec: AnomalySpec) -> None:
        spec.validate()
        self.spec = spec
        self.firing = False
        self._ewma: float | None = None
        self._window: list[float] = []

    @property
    def source(self) -> str:
        return f"anomaly:{self.spec.key}"

    def _score(self, value: float) -> float | None:
        """z-score of *value* against the smoothed window, or None."""
        if len(self._window) < self.spec.min_points:
            return None
        n = len(self._window)
        mean = sum(self._window) / n
        var = sum((x - mean) ** 2 for x in self._window) / n
        std = math.sqrt(var)
        if std <= 0.0:
            # A perfectly flat history: any deviation at all is anomalous.
            return math.inf if value != mean else 0.0
        return (value - mean) / std

    def evaluate(self, now: float, value: float | None) -> HealthAlert | None:
        if value is None:
            return None
        spec = self.spec
        z = self._score(value)
        # Smooth *after* scoring so the current value never defends itself.
        self._ewma = value if self._ewma is None else (
            spec.alpha * value + (1.0 - spec.alpha) * self._ewma
        )
        self._window.append(self._ewma)
        if len(self._window) > spec.window:
            self._window = self._window[-spec.window:]
        if z is None:
            return None
        anomalous = abs(z) > spec.z
        if anomalous and not self.firing:
            self.firing = True
            return HealthAlert(
                time=now, source=self.source, kind="firing",
                severity=spec.severity, value=value, threshold=spec.z,
                message=f"{spec.key} anomalous: z={'inf' if math.isinf(z) else f'{z:.2f}'}",
            )
        if not anomalous and self.firing:
            self.firing = False
            return HealthAlert(
                time=now, source=self.source, kind="clearing",
                severity=spec.severity, value=value, threshold=spec.z,
                message=f"{spec.key} back to baseline: z={z:.2f}",
            )
        return None

    def state_dict(self) -> dict[str, Any]:
        return {
            "firing": self.firing,
            "ewma": self._ewma,
            "window": list(self._window),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self.firing = bool(state.get("firing", False))
        ewma = state.get("ewma")
        self._ewma = None if ewma is None else float(ewma)
        self._window = [float(x) for x in state.get("window", [])]
