"""Consolidated runtime configuration.

Both drivers historically grew one keyword argument per subsystem —
``telemetry=``, ``observability=``, ``journal=``, ``preflight=``,
``resilience=`` — which made their signatures drift apart and forced
every new cross-cutting switch through two constructors.  This module
folds them into one frozen :class:`RuntimeOptions` value accepted by
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

    ``resilience`` is applied by the orchestrator through
    ``launcher.configure_resilience`` (the launcher owns retry/quarantine
    state); the threaded driver consumes it directly.
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
