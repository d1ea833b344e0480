"""Resilience configuration: retry, watchdog, quarantine, checkpoint, faults.

One :class:`ResilienceSpec` bundles every recovery knob plus the
stochastic fault model.  It is constructed either programmatically or
from the XML ``<resilience>`` element (see ``docs/xml-reference.md``);
both the simulated runtime (:class:`repro.wms.launcher.Savanna` /
:class:`repro.runtime.sim_driver.DyflowOrchestrator`) and the live
threaded runtime (:class:`repro.runtime.threaded.ThreadedDyflow`)
consume the same spec, so the two execution substrates share one
resilience API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ResilienceError
from repro.util.xmlfield import attr, check_fields, child

if TYPE_CHECKING:
    from repro.fabric.spec import NetworkSpec


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and jitter.

    The delay before attempt *k* (0-based) is

        min(backoff_base * backoff_factor**k, backoff_max) * (1 + U*jitter)

    where ``U`` is uniform in [0, 1) drawn from a *named* RNG stream, so
    chaos runs replay bit-identically.
    """

    max_retries: int = attr(3, ge=0)
    backoff_base: float = attr(2.0, ge=0)
    backoff_factor: float = attr(2.0, ge=1)
    backoff_max: float = attr(120.0, ge=0)
    jitter: float = attr(0.25, ge=0, le=1)

    def validate(self) -> None:
        check_fields(self, ResilienceError, "retry")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff delay before retry *attempt* (0-based), jitter included."""
        base = min(self.backoff_base * self.backoff_factor ** attempt, self.backoff_max)
        if self.jitter > 0:
            base *= 1.0 + self.jitter * float(rng.random())
        return base

    def exhausted(self, retries_used: int) -> bool:
        return retries_used >= self.max_retries


@dataclass(frozen=True)
class WatchdogSpec:
    """Heartbeat-based hang detection.

    A running task whose newest heartbeat (app-level step completion or
    Monitor-stage metric arrival, whichever is newer) is older than
    ``heartbeat_timeout`` seconds is declared hung and killed with
    ``kill_code`` so the retry/restart machinery can relaunch it.
    """

    heartbeat_timeout: float = attr(120.0, gt=0)
    poll: float = attr(10.0, gt=0)
    kill_code: int = attr(142, gt=128)  # a signal exit code

    def validate(self) -> None:
        check_fields(self, ResilienceError, "watchdog")


@dataclass(frozen=True)
class QuarantineSpec:
    """Node circuit breaker: N failures within a window ⇒ exclusion.

    A node accumulating ``failures`` blamed failures within ``window``
    seconds is quarantined for ``cooldown`` seconds: the resource
    manager and Arbitration's shadow placement exclude it even if the
    scheduler reports it UP.
    """

    failures: int = attr(3, ge=1)
    window: float = attr(600.0, gt=0)
    cooldown: float = attr(1800.0, gt=0)

    def validate(self) -> None:
        check_fields(self, ResilienceError, "quarantine")


@dataclass(frozen=True)
class CheckpointSpec:
    """Checkpoint-restart cadence injected into task parameters.

    ``every`` overrides the app's own ``checkpoint_every`` (steps);
    ``resume`` makes restarted incarnations resume from their last
    saved checkpoint instead of step 0.
    """

    every: int = attr(50, ge=0)
    resume: bool = attr(True)

    def validate(self) -> None:
        check_fields(self, ResilienceError, "checkpoint")


DISTRIBUTIONS = ("exponential", "weibull")


@dataclass(frozen=True)
class FaultModelSpec:
    """The stochastic fault model driven by the chaos engine.

    Rates are mean-time-between-events in simulated seconds; 0 disables
    that fault class.  Node-crash interarrivals are exponential or
    Weibull (``weibull_shape`` < 1 models infant mortality, > 1 wearout);
    task crashes/hangs pick a uniformly random running task; message
    drops hit Monitor client→server envelopes with ``msg_drop_prob``
    and staged coupling steps with ``stage_drop_prob``.
    """

    node_mtbf: float = attr(0.0, ge=0)
    node_dist: str = attr("exponential", choices=DISTRIBUTIONS)
    weibull_shape: float = attr(1.5, gt=0)
    node_repair_time: float = attr(600.0, ge=0)
    task_crash_mtbf: float = attr(0.0, ge=0)
    task_hang_mtbf: float = attr(0.0, ge=0)
    msg_drop_prob: float = attr(0.0, ge=0, lt=1)
    stage_drop_prob: float = attr(0.0, ge=0, lt=1)
    # Mean time between orchestrator (controller) crashes.  The control
    # loop dies and is resumed from its write-ahead journal; the launcher
    # and running tasks survive (the fail-stop model of docs/crash-recovery.md).
    orch_crash_mtbf: float = attr(0.0, ge=0)

    def validate(self) -> None:
        check_fields(self, ResilienceError, "faults")

    @property
    def any_enabled(self) -> bool:
        return (
            self.node_mtbf > 0
            or self.task_crash_mtbf > 0
            or self.task_hang_mtbf > 0
            or self.msg_drop_prob > 0
            or self.stage_drop_prob > 0
            or self.orch_crash_mtbf > 0
        )

    def interarrival(self, mtbf: float, rng: np.random.Generator) -> float:
        """Draw one interarrival time for an event class with mean *mtbf*."""
        if self.node_dist == "weibull":
            # Scale so the mean of the Weibull equals mtbf.
            from math import gamma

            scale = mtbf / gamma(1.0 + 1.0 / self.weibull_shape)
            return scale * float(rng.weibull(self.weibull_shape))
        return float(rng.exponential(mtbf))


def _network_spec() -> type:
    # repro.fabric's package imports reach back into repro.resilience,
    # so the class is looked up on first use, not at import.
    from repro.fabric.spec import NetworkSpec

    return NetworkSpec


@dataclass(frozen=True)
class ResilienceSpec:
    """The complete resilience configuration (XML ``<resilience>``).

    Every component is optional; ``None`` disables it.  ``network`` is
    the Monitor-fabric transport model (:mod:`repro.fabric`): lossy-link
    faults, ack/retransmit reliability, server backpressure and the
    staleness thresholds behind degraded planning.
    """

    retry: RetryPolicy | None = child(RetryPolicy)
    watchdog: WatchdogSpec | None = child(WatchdogSpec)
    quarantine: QuarantineSpec | None = child(QuarantineSpec)
    checkpoint: CheckpointSpec | None = child(CheckpointSpec)
    faults: FaultModelSpec | None = child(FaultModelSpec)
    network: "NetworkSpec | None" = child(_network_spec)

    def validate(self) -> None:
        check_fields(self, ResilienceError, "resilience")
