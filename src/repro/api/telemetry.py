"""``repro.api.telemetry`` — tracing, metrics, and trace export."""

from repro.telemetry import (
    MetricsRegistry,
    NullTracer,
    TelemetrySpec,
    Tracer,
    TraceSpan,
    build_tracer,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "TelemetrySpec",
    "Tracer",
    "NullTracer",
    "TraceSpan",
    "MetricsRegistry",
    "build_tracer",
    "to_chrome_trace",
    "write_chrome_trace",
]
