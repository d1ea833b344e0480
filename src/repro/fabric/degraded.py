"""Staleness-aware degraded mode for the Decision stage.

When the fabric loses or delays Monitor traffic, the Decision stage is
planning on old data.  The controller watches the per-task data age the
server's ``last_seen`` map implies and — with hysteresis matching the
SLO evaluators — flips the orchestrator into *degraded mode*: the
Decision stage keeps emitting failure-recovery actions (STOP / START /
RESTART) but gates performance-tuning ones (ADDCPU / RMCPU / SWITCH /
RECONFIG), which would otherwise thrash the allocation based on stale
pace numbers.  Partition windows and degraded-mode transitions are
published as :class:`~repro.observability.slo.HealthAlert` records
through the observability loop, so run reports and HEALTH pseudo-task
sensors see them like any SLO transition.
"""

from __future__ import annotations

from repro.fabric.spec import HEALTH_TASK, NetworkSpec
from repro.observability.slo import HealthAlert


class DegradedModeController:
    """Hysteresis state machine over per-task ingest staleness.

    A streak counts consecutive stale (fresh) ticks up to
    ``degrade_after`` (``recover_after``) and stays there: only ``>=``
    reads it, so a steady fabric leaves the state, and ``revision``, as
    they are.  ``revision`` moves whenever ``state_dict`` does.
    """

    def __init__(self, network: NetworkSpec) -> None:
        self.network = network
        self.degraded = False
        self.partition = False
        self._stale_streak = 0
        self._fresh_streak = 0
        self.entered = 0
        self.exited = 0
        self.revision = 0

    def tick(self, now: float, last_seen: dict[str, float]) -> list[HealthAlert]:
        """Evaluate once; returns the alerts this evaluation transitioned."""
        new: list[HealthAlert] = []
        part = self.network.partition_active(now)
        if part != self.partition:
            self.partition = part
            self.revision += 1
            new.append(HealthAlert(
                time=now, source="fabric:partition",
                kind="firing" if part else "clearing",
                severity="warning", value=1.0 if part else 0.0, threshold=0.0,
                message=("network partition window opened"
                         if part else "network partition window closed"),
            ))
        net = self.network
        if net.stale_after > 0:
            # Tasks that never reported don't count: warmup would read as
            # stale before the first envelope ever lands.
            ages = [now - t for task, t in last_seen.items() if task != HEALTH_TASK]
            age = max(ages, default=0.0)
            if age > net.stale_after:
                streaks = (min(self._stale_streak + 1, net.degrade_after), 0)
            else:
                streaks = (0, min(self._fresh_streak + 1, net.recover_after))
            if streaks != (self._stale_streak, self._fresh_streak):
                self._stale_streak, self._fresh_streak = streaks
                self.revision += 1
            if not self.degraded and self._stale_streak >= net.degrade_after:
                self.degraded = True
                self.entered += 1
                self.revision += 1
                new.append(HealthAlert(
                    time=now, source="fabric:degraded", kind="firing",
                    severity="warning", value=age, threshold=net.stale_after,
                    message=(f"monitor data is {age:.1f}s stale "
                             f"(> {net.stale_after}s); gating non-essential actions"),
                ))
            elif self.degraded and self._fresh_streak >= net.recover_after:
                self.degraded = False
                self.exited += 1
                self.revision += 1
                new.append(HealthAlert(
                    time=now, source="fabric:degraded", kind="clearing",
                    severity="warning", value=age, threshold=net.stale_after,
                    message=f"monitor data fresh again ({age:.1f}s old)",
                ))
        return new

    # -- crash recovery --------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "degraded": self.degraded,
            "partition": self.partition,
            "stale_streak": self._stale_streak,
            "fresh_streak": self._fresh_streak,
            "entered": self.entered,
            "exited": self.exited,
        }

    def load_state_dict(self, state: dict) -> None:
        self.revision += 1
        self.degraded = bool(state["degraded"])
        self.partition = bool(state["partition"])
        self._stale_streak = int(state["stale_streak"])
        self._fresh_streak = int(state["fresh_streak"])
        self.entered = int(state["entered"])
        self.exited = int(state["exited"])
