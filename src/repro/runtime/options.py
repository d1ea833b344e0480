"""Consolidated runtime configuration: one frozen :class:`RuntimeOptions`
value carries the cross-cutting subsystem specs to
:class:`~repro.runtime.sim_driver.DyflowOrchestrator` and
:class:`~repro.runtime.threaded.ThreadedDyflow` alike::

    opts = RuntimeOptions(telemetry=TelemetrySpec(...), preflight="warn")
    orch = DyflowOrchestrator(launcher, options=opts)

``options=`` is the only way to pass them: the constructors take no
per-subsystem keyword arguments.

Tuning knobs that describe *how this particular run is driven* (warmup,
settle, poll cadence, tracer injection, worker caps) are not part of
RuntimeOptions — they stay ordinary constructor arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.observability import ObservabilitySpec
    from repro.resilience.spec import ResilienceSpec
    from repro.telemetry import TelemetrySpec
    from repro.xmlspec.model import DyflowSpec


@dataclass(frozen=True)
class RuntimeOptions:
    """Cross-cutting subsystem switches shared by both drivers.

    ``resilience`` reaches the launcher (which owns retry/quarantine
    state) through ``configure_resilience`` or, live, its constructor.
    """

    telemetry: "TelemetrySpec | None" = None
    observability: "ObservabilitySpec | None" = None
    journal: Any = None  # Journal | JournalSpec | None
    preflight: str = "off"
    resilience: "ResilienceSpec | None" = None

    @classmethod
    def from_spec(cls, spec: "DyflowSpec") -> "RuntimeOptions":
        """Lift the runtime-relevant sections of a parsed XML spec."""
        return cls(
            telemetry=spec.telemetry,
            observability=spec.observability,
            journal=spec.journal,
            resilience=spec.resilience,
        )

    def override(self, **changes: Any) -> "RuntimeOptions":
        """Copy with the given fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)
