"""Observability: analysis, exporters, and health feedback over telemetry.

PR 2 made the control loop *recorded* (spans, metrics, JSONL); this
package makes it *observed*: critical-path and utilization analytics
over those records, OpenMetrics export for standard scrapers, a run
report CLI, and SLO/anomaly detection whose alerts feed back into the
Monitor stage as ordinary sensor streams — the framework watching itself
with its own abstractions (see docs/observability.md).
"""

from repro.observability.analysis import (
    CriticalPath,
    PathEntry,
    SpanView,
    bottlenecks,
    critical_path,
    exclusive_times,
    slowest_spans,
)
from repro.observability.fleet import FleetHealthEngine
from repro.observability.health import HEALTH_TASK, HealthEngine, HealthSensorSource
from repro.observability.openmetrics import (
    escape_label_value,
    parse_openmetrics,
    render_labeled_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
    write_openmetrics,
)
from repro.observability.report import (
    build_report,
    render_json,
    render_markdown,
    report_from_jsonl,
    write_report,
)
from repro.observability.slo import EwmaDetector, HealthAlert, SloEvaluator
from repro.observability.spec import AnomalySpec, FleetSpec, ObservabilitySpec, SloSpec
from repro.observability.store import RunRecord, RunStore, flatten_metrics, load_record
from repro.observability.watch import EVENT_KINDS, WatchStream, read_watch_stream
from repro.observability.utilization import (
    BusySegment,
    NodeUtilization,
    UtilizationReport,
    build_utilization,
    utilization_from_events,
)

__all__ = [
    # spec
    "ObservabilitySpec",
    "SloSpec",
    "AnomalySpec",
    "FleetSpec",
    # analysis
    "SpanView",
    "CriticalPath",
    "PathEntry",
    "critical_path",
    "exclusive_times",
    "bottlenecks",
    "slowest_spans",
    # utilization
    "BusySegment",
    "NodeUtilization",
    "UtilizationReport",
    "build_utilization",
    "utilization_from_events",
    # openmetrics
    "render_openmetrics",
    "render_labeled_openmetrics",
    "write_openmetrics",
    "parse_openmetrics",
    "sanitize_metric_name",
    "escape_label_value",
    # fleet plane
    "FleetHealthEngine",
    "WatchStream",
    "read_watch_stream",
    "EVENT_KINDS",
    # run store
    "RunStore",
    "RunRecord",
    "load_record",
    "flatten_metrics",
    # slo / health
    "HealthAlert",
    "SloEvaluator",
    "EwmaDetector",
    "HealthEngine",
    "HealthSensorSource",
    "HEALTH_TASK",
    # reports
    "build_report",
    "report_from_jsonl",
    "render_markdown",
    "render_json",
    "write_report",
]
