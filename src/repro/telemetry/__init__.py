"""Control-loop telemetry: spans, metrics, structured logs, trace export.

The paper's evaluation is built on *measured response times* of the four
orchestration stages; this package is how the reproduction measures its
own control loop.  One :class:`Tracer` (or the zero-cost
:class:`NullTracer`) threads through Monitor ingest, Decision ticks,
Arbitration planning, Actuation execution, the Savanna launcher, and the
staging hub; its spans export to Chrome ``trace_event`` JSON
(chrome://tracing / Perfetto) and its metrics registry carries the
per-stage latency histograms the §4.6 rows of
:mod:`repro.experiments.report` read.
"""

from repro.telemetry.config import TelemetrySpec, build_tracer
from repro.telemetry.export import chrome_trace_events, to_chrome_trace, write_chrome_trace
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer, TraceSpan

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceSpan",
    "MetricsRegistry",
    "NullMetrics",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "DEFAULT_BUCKETS",
    "TelemetrySpec",
    "build_tracer",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
]
