"""``repro.api.telemetry`` — tracing and metrics."""

from repro.telemetry import (
    MetricsRegistry,
    NullTracer,
    TelemetrySpec,
    Tracer,
    TraceSpan,
    build_tracer,
)

__all__ = [
    "TelemetrySpec",
    "Tracer",
    "NullTracer",
    "TraceSpan",
    "MetricsRegistry",
    "build_tracer",
]
