"""Control-loop telemetry: spans, metrics and the run's JSONL event log.

The paper's evaluation is built on *measured response times* of the four
orchestration stages; this package is how the reproduction measures its
own control loop.  One :class:`Tracer` (or the zero-cost
:class:`NullTracer`) threads through Monitor ingest, Decision ticks,
Arbitration planning, Actuation execution, the Savanna launcher, and the
staging hub; its finished spans go to the run log, which it flushes as
JSONL, and its metrics registry carries the per-stage latency histograms
the §4.6 rows of :mod:`repro.experiments.report` read.
"""

from repro.telemetry.config import TelemetrySpec, build_tracer
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
]
