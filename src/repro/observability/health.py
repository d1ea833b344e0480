"""The health engine: self-observation feeding back into the Monitor stage.

The engine runs on the orchestrator's tick, at the spec's evaluation
cadence: it resolves every SLO/anomaly metric against the run's
:class:`~repro.telemetry.metrics.MetricsRegistry` and the runtime's
aggregate provider (utilization, quarantine count, ...), advances the
evaluators, records :class:`HealthAlert` transitions, and *publishes*
the whole picture — aggregates, objective values, and alert states — as
ordinary :class:`~repro.staging.serialization.Sample` streams that a
:class:`HealthSensorSource` delivers into the Monitor stage.  User
policies then react to orchestrator health exactly as they react to
application metrics (the paper's §2.1 sensor abstraction, pointed at the
framework itself).

Determinism: evaluation happens on the runtime clock at a fixed cadence
over sim-time metrics, and the engine's full state (evaluator streaks,
EWMA windows, feed cursor base, alert history) is
journaled at every barrier — a crash-resumed run emits exactly the
alerts the uninterrupted run would, with no double-firing on WAL replay.
``HealthEngine.revision`` moves with that state: an evaluating tick, a
trim that drops feed entries, a publish, an alert and a restore bump it,
and :meth:`HealthEngine.add_alert` is the one way into the alert history.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.sensors.sources import DataSource
from repro.errors import ObservabilityError
from repro.observability.slo import EwmaDetector, HealthAlert, SloEvaluator
from repro.observability.spec import ObservabilitySpec
from repro.staging.serialization import Sample
from repro.telemetry.metrics import instrument_stat
from repro.telemetry.tracer import NULL_TRACER, Tracer

#: Pseudo-task identity health streams are published under.  It is not a
#: workflow task: the runtimes exempt it from task-existence checks and
#: policies assess it explicitly.
HEALTH_TASK = "__dyflow__"

_EPS = 1e-9


class HealthSensorSource(DataSource):
    """A Monitor data source fed by the health engine's sample feed.

    Each bound source keeps an absolute cursor into the engine's feed;
    the cursor is journaled with the owning Monitor client, so a resumed
    run re-reads exactly the unseen suffix.
    """

    def __init__(self, engine: "HealthEngine", var: str | None = None) -> None:
        self.engine = engine
        self.var = var
        self._cursor = 0
        self._wake: set[int] | None = None
        self._token = 0

    def watch(self, wake: set[int], token: int) -> None:
        # The engine wakes every bound source on each publish.
        self._wake = wake
        self._token = token

    def unwatch(self, wake: set[int]) -> None:
        self._wake = None

    def poll(self, now: float) -> list[Sample]:
        samples, self._cursor = self.engine.read_feed(self._cursor)
        if self.var is not None:
            samples = [s for s in samples if s.var == self.var]
        return samples

    def read_lag(self, perf) -> float:
        # Health samples are produced on the orchestrator's own node;
        # there is no stream or filesystem transport to wait for.
        return 0.0

    def cursor_state(self) -> dict:
        return {"cursor": self._cursor}

    def restore_cursor(self, state: dict) -> None:
        self._cursor = int(state.get("cursor", 0))


class HealthEngine:
    """Evaluates SLOs/anomalies and publishes health sensor streams."""

    def __init__(
        self,
        spec: ObservabilitySpec,
        tracer: Tracer | None = None,
        workflow_id: str = "",
        aggregates: Callable[[], Mapping[str, float]] | None = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = self.tracer.metrics
        self.workflow_id = workflow_id
        self.aggregates = aggregates
        self.slo_evaluators = [SloEvaluator(s) for s in spec.slos]
        self.anomaly_detectors = [EwmaDetector(a) for a in spec.anomalies]
        self.alerts: list[HealthAlert] = []
        self.evaluations = 0
        self._next_eval = 0.0
        self._sources: list[HealthSensorSource] = []
        self._feed: list[Sample] = []
        self._base = 0  # absolute index of _feed[0]
        self.revision = 0

    # -- sensor plumbing ---------------------------------------------------------
    def bind_source(self, var: str | None = None) -> HealthSensorSource:
        """A new Monitor data source over this engine's feed."""
        source = HealthSensorSource(self, var=var)
        source._cursor = self._base + len(self._feed)
        self._sources.append(source)
        return source

    def read_feed(self, cursor: int) -> tuple[list[Sample], int]:
        """Feed entries at absolute index >= *cursor*, plus the new cursor."""
        lo = max(0, cursor - self._base)
        return list(self._feed[lo:]), self._base + len(self._feed)

    def _trim_feed(self) -> None:
        """Drop feed entries every bound source has consumed."""
        if not self._sources:
            return  # nothing is ever published without a bound source
        low = min(s._cursor for s in self._sources)
        drop = low - self._base
        if drop > 0:
            self.revision += 1
            del self._feed[:drop]
            self._base = low

    def _publish(self, now: float, var: str, value: float) -> None:
        if not self._sources:
            return
        self.revision += 1
        self._feed.append(
            Sample(
                time=now, workflow_id=self.workflow_id, task=HEALTH_TASK,
                rank=-1, node_id="", var=var, value=float(value),
                step=self.evaluations,
            )
        )
        for source in self._sources:
            if source._wake is not None:
                source._wake.add(source._token)

    # -- evaluation ----------------------------------------------------------------
    def tick(self, now: float) -> list[HealthAlert]:
        """Run due work for this orchestrator tick; returns new alerts."""
        self._trim_feed()
        if now + _EPS < self._next_eval:
            return []
        self.revision += 1
        while self._next_eval <= now + _EPS:
            self._next_eval += self.spec.eval_every
        return self._evaluate(now)

    def _evaluate(self, now: float) -> list[HealthAlert]:
        aggregates = dict(self.aggregates()) if self.aggregates is not None else {}
        new_alerts: list[HealthAlert] = []
        for key in sorted(aggregates):
            self._publish(now, key, aggregates[key])
        for ev in self.slo_evaluators:
            value = self._resolve(ev.spec.metric, ev.spec.stat, aggregates)
            alert = ev.evaluate(now, value)
            if alert is not None:
                new_alerts.append(alert)
            if value is not None:
                self._publish(now, ev.spec.key, value)
            self._publish(now, f"alert.{ev.spec.key}", 1.0 if ev.firing else 0.0)
        for det in self.anomaly_detectors:
            value = self._resolve(det.spec.metric, det.spec.stat, aggregates)
            alert = det.evaluate(now, value)
            if alert is not None:
                new_alerts.append(alert)
            self._publish(now, f"alert.anomaly.{det.spec.key}", 1.0 if det.firing else 0.0)
        for alert in new_alerts:
            self.add_alert(alert)
            self.tracer.point("health.alert", "health", **alert.to_dict())
        if self.tracer.enabled:
            self.registry.gauge("health.firing").set(float(self.firing_count()))
        self.evaluations += 1
        return new_alerts

    def _resolve(
        self, metric: str, stat: str, aggregates: Mapping[str, float]
    ) -> float | None:
        """Current value of ``metric.stat``, or None when unobservable."""
        if stat == "value" and metric in aggregates:
            return float(aggregates[metric])
        return instrument_stat(self.registry.lookup(metric), stat)

    def add_alert(self, alert: HealthAlert) -> None:
        """Append *alert* to the journaled alert history."""
        self.revision += 1
        self.alerts.append(alert)

    # -- queries -------------------------------------------------------------------
    def firing_count(self) -> int:
        return sum(ev.firing for ev in self.slo_evaluators) + sum(
            det.firing for det in self.anomaly_detectors
        )

    def firing_sources(self) -> list[str]:
        out = [ev.source for ev in self.slo_evaluators if ev.firing]
        out.extend(det.source for det in self.anomaly_detectors if det.firing)
        return sorted(out)

    # -- crash recovery --------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        return {
            "next_eval": self._next_eval,
            "evaluations": self.evaluations,
            "slos": [ev.state_dict() for ev in self.slo_evaluators],
            "anomalies": [det.state_dict() for det in self.anomaly_detectors],
            "alerts": [a.to_dict() for a in self.alerts],
            "feed_base": self._base,
            "feed": [
                {"time": s.time, "var": s.var, "value": s.value, "step": s.step}
                for s in self._feed
            ],
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        slos = state.get("slos", [])
        anomalies = state.get("anomalies", [])
        if len(slos) != len(self.slo_evaluators) or len(anomalies) != len(self.anomaly_detectors):
            raise ObservabilityError(
                "journaled health state does not match the configured spec "
                f"({len(slos)} slos for {len(self.slo_evaluators)}, "
                f"{len(anomalies)} anomaly detectors for {len(self.anomaly_detectors)})"
            )
        self.revision += 1
        self._next_eval = float(state.get("next_eval", 0.0))
        self.evaluations = int(state.get("evaluations", 0))
        for ev, s in zip(self.slo_evaluators, slos):
            ev.load_state_dict(s)
        for det, s in zip(self.anomaly_detectors, anomalies):
            det.load_state_dict(s)
        self.alerts = [HealthAlert.from_dict(d) for d in state.get("alerts", [])]
        self._base = int(state.get("feed_base", 0))
        self._feed = [
            Sample(
                time=float(d["time"]), workflow_id=self.workflow_id, task=HEALTH_TASK,
                rank=-1, node_id="", var=d["var"], value=float(d["value"]),
                step=int(d.get("step", -1)),
            )
            for d in state.get("feed", [])
        ]
