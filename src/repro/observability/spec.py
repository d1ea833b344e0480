"""Observability configuration: SLOs, anomaly detectors, export targets.

:class:`ObservabilitySpec` mirrors :class:`~repro.telemetry.config.TelemetrySpec`:
a frozen dataclass consumed identically by the simulated and threaded
runtimes, and by the ``<observability>`` XML element (see
``docs/xml-reference.md``).  The spec is pure configuration — the moving
parts live in :mod:`repro.observability.health`.

An :class:`SloSpec` states an *objective* (``stage.decision.latency p95
LT 50``): the alert fires when the objective is violated for
``fire_after`` consecutive evaluations and clears after ``clear_after``
consecutive healthy ones.  An :class:`AnomalySpec` needs no threshold —
it flags values whose z-score against an EWMA-smoothed rolling window
exceeds ``z``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ObservabilityError
from repro.util.xmlfield import attr, check_fields, child, children

SEVERITIES = ("info", "warning", "critical")
SLO_STATS = ("p50", "p95", "p99", "mean", "min", "max", "count", "value")
SLO_OPS = ("LT", "LE", "GT", "GE")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a metric statistic.

    Attributes:
        metric: metric name — a histogram/counter/gauge in the run's
            :class:`~repro.telemetry.metrics.MetricsRegistry` (e.g.
            ``stage.decision.latency``) or a runtime aggregate published
            by the health engine (``utilization``, ``quarantine.count``).
        stat: statistic of the metric (``p50``/``p95``/``p99``/``mean``/
            ``min``/``max``/``count`` for histograms, ``value`` for
            counters/gauges/aggregates).
        op: objective comparator — the value is *healthy* when
            ``value <op> threshold`` holds.
        threshold: objective bound, in the metric's own unit.
        severity: alert severity when the objective is violated.
        fire_after: consecutive violating evaluations before firing.
        clear_after: consecutive healthy evaluations before clearing.
        tenant: optional tenant scope — when set, the objective reads
            the named tenant's registry under a campaign service (and
            DY412 checks the id against the ``<tenants>`` declaration).
    """

    metric: str = attr(nonempty=True)
    stat: str = attr("p95", choices=SLO_STATS)
    op: str = attr("LT", choices=SLO_OPS, upper=True)
    threshold: float = attr(0.0, required=True)
    severity: str = attr("warning", choices=SEVERITIES)
    fire_after: int = attr(1, ge=1)
    clear_after: int = attr(1, ge=1)
    tenant: str = attr("", optional=True)

    @property
    def key(self) -> str:
        """Stable identity of the objective (``[tenant:]metric.stat``)."""
        base = f"{self.metric}.{self.stat}"
        return f"{self.tenant}:{base}" if self.tenant else base

    def validate(self) -> None:
        check_fields(self, ObservabilityError, "slo")

    def healthy(self, value: float) -> bool:
        """Does *value* meet the objective?"""
        if self.op == "LT":
            return value < self.threshold
        if self.op == "LE":
            return value <= self.threshold
        if self.op == "GT":
            return value > self.threshold
        return value >= self.threshold


@dataclass(frozen=True)
class AnomalySpec:
    """EWMA/z-score anomaly detector over a rolling window of a metric.

    Each evaluation appends the EWMA-smoothed value to a rolling window;
    the *raw* value is scored against the window's mean and standard
    deviation.  ``|z| > z`` (with at least ``min_points`` history) fires.
    """

    metric: str = attr(nonempty=True)
    stat: str = attr("value", choices=SLO_STATS)
    window: int = attr(20, ge=2)
    z: float = attr(3.0, gt=0)
    alpha: float = attr(0.3, gt=0, le=1)
    min_points: int = attr(5, ge=2)
    severity: str = attr("warning", choices=SEVERITIES)

    @property
    def key(self) -> str:
        return f"{self.metric}.{self.stat}"

    def validate(self) -> None:
        check_fields(self, ObservabilityError, "anomaly")


@dataclass(frozen=True)
class FleetSpec:
    """Fleet-plane configuration for multi-tenant campaigns.

    Consumed by :class:`~repro.observability.fleet.FleetHealthEngine`
    and :meth:`~repro.campaign.service.CampaignService.watch`.

    Attributes:
        openmetrics_path: if set, fleet rollups are rendered there as
            tenant-labeled OpenMetrics families at campaign finalize.
        watch_path: if set, the campaign's watch stream is written to
            this JSONL file instead of under the journal root.
        flight_recorder: ring-buffer capacity (events) for the crash /
            poison-quarantine flight recorder; 0 disables it.
    """

    openmetrics_path: str | None = attr(None)
    watch_path: str | None = attr(None)
    flight_recorder: int = attr(256, ge=0)

    def validate(self) -> None:
        check_fields(self, ObservabilityError, "fleet")


@dataclass(frozen=True)
class ObservabilitySpec:
    """What to analyze, watch, and export.

    A run without a spec has no health engine and writes none of these
    outputs; the exports need a telemetry spec, whose tracer they read.

    Attributes:
        eval_every: health-evaluation cadence in runtime seconds
            (simulated seconds under the sim driver, wall seconds under
            the threaded driver).
        openmetrics_path: if set, the runtime renders the final
            :class:`MetricsRegistry` there in OpenMetrics text format.
        report_path: if set, a markdown run report is written there when
            the run finishes.
        report_json_path: if set, the same report as JSON.
        slos: declarative objectives evaluated every ``eval_every``.
        anomalies: EWMA/z-score detectors evaluated on the same cadence.
        fleet: optional fleet-plane configuration (multi-tenant rollups,
            watch stream, flight recorder); ``None`` means no fleet plane.
    """

    eval_every: float = attr(5.0, gt=0)
    openmetrics_path: str | None = attr(None, holder="openmetrics", name="path")
    report_path: str | None = attr(None, holder="report", name="path")
    report_json_path: str | None = attr(None, holder="report", name="json-path")
    slos: tuple[SloSpec, ...] = children(SloSpec, "slo")
    anomalies: tuple[AnomalySpec, ...] = children(AnomalySpec, "anomaly")
    fleet: FleetSpec | None = child(FleetSpec)

    def __post_init__(self) -> None:
        # Tolerate lists from programmatic callers; store tuples so the
        # spec stays hashable and XML round-trips compare equal.
        object.__setattr__(self, "slos", tuple(self.slos))
        object.__setattr__(self, "anomalies", tuple(self.anomalies))

    def validate(self) -> None:
        check_fields(self, ObservabilityError, "observability")
        keys = [s.key for s in self.slos]
        if len(set(keys)) != len(keys):
            raise ObservabilityError(f"duplicate slo objectives: {sorted(keys)}")
