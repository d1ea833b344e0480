"""Telemetry configuration: one spec, built programmatically or from XML.

:class:`TelemetrySpec` mirrors :class:`~repro.resilience.spec.ResilienceSpec`:
a frozen dataclass consumed identically by the simulated and threaded
runtimes, and by the ``<telemetry>`` XML element
(see ``docs/xml-reference.md``).  :func:`build_tracer` turns a spec into
the right tracer — a recording :class:`~repro.telemetry.tracer.Tracer`
with the configured JSONL path, or the shared
:data:`~repro.telemetry.tracer.NULL_TRACER` when there is no spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import TelemetryError
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.xmlfield import attr, check_fields


@dataclass(frozen=True)
class TelemetrySpec:
    """What to record and where to ship it.

    A run without a spec uses the NullTracer.

    Attributes:
        jsonl_path: if set, :meth:`Tracer.flush` writes the run's records
            there as JSONL.
        chrome_trace_path: if set, runtimes write a Chrome
            ``trace_event`` JSON file there when the run finishes.
    """

    jsonl_path: str | None = attr(None, holder="jsonl", name="path")
    chrome_trace_path: str | None = attr(None, holder="chrome-trace", name="path")

    def validate(self) -> None:
        check_fields(self, TelemetryError, "telemetry")


def build_tracer(
    spec: TelemetrySpec | None,
    clock: Callable[[], float] | None = None,
) -> Tracer:
    """Build the tracer a runtime should use for *spec*.

    ``None`` yields the shared NullTracer, so callers can wire telemetry
    unconditionally.
    """
    if spec is None:
        return NULL_TRACER
    spec.validate()
    return Tracer(clock=clock, path=spec.jsonl_path)
