"""Heartbeat watchdog: hang/straggler detection in the Monitor stage.

A crashed task is loud (exit code, STATUS sensor); a *hung* task is
silent — it holds its resources and stops making progress.  The watchdog
closes that gap: every running instance carries a heartbeat (stamped by
the app at each completed step), and the Monitor server's per-task
last-update times provide a second, transport-level signal.  A task
whose freshest signal is older than the timeout is killed with a
distinguishable exit code (> 128) so the ordinary failure machinery —
launcher retry or a RESTART_ON_FAILURE policy — relaunches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.resilience.spec import WatchdogSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import MonitorServer
    from repro.wms.launcher import LauncherCore


@dataclass(frozen=True)
class WatchdogKill:
    """One watchdog-triggered kill, for post-run inspection."""

    time: float
    task: str
    last_heartbeat: float


class HeartbeatWatchdog:
    """Scans running instances and kills the ones that stopped beating.

    :meth:`scan` is the one scan on both runtimes (the threaded driver
    calls it from a stage thread).  On the event clock the poll is a
    self-rescheduling engine callback (not a simulated process) so a
    crashing orchestrator can cancel the pending poll and a resumed one
    can re-register it at the exact journaled heap slot.
    """

    def __init__(self, launcher: "LauncherCore", spec: WatchdogSpec,
                 server: "MonitorServer | None" = None) -> None:
        spec.validate()
        self.launcher = launcher
        self.spec = spec
        self.server = server
        self._running = False
        self._event = None  # pending poll's SimEvent
        #: Bumped by every call that may change ``state_dict``.
        self.revision = 0

    @property
    def kills(self) -> list[WatchdogKill]:
        """Every kill of the run: a view of its log's ``watchdog-kill:`` points."""
        return [
            WatchdogKill(p.time, p.label.split(":", 1)[1], p.meta["last_heartbeat"])
            for p in self.launcher.log.points if p.label.startswith("watchdog-kill:")
        ]

    # -- lifecycle (the event-clock poll) --------------------------------------------
    def start(self) -> None:
        """Begin the poll chain (first scan at the current time)."""
        if self._running:
            return
        self.revision += 1
        self._running = True
        self._event = self.launcher.engine.call_after(0.0, self._tick, name="watchdog")

    def stop(self) -> None:
        self.revision += 1
        self._running = False

    # -- crash recovery -----------------------------------------------------------
    def suspend(self) -> None:
        """Orchestrator crash: drop the pending poll without firing it."""
        self.revision += 1
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def state_dict(self) -> dict:
        ev = self._event
        pending = self._running and ev is not None and not ev.cancelled
        return {
            "running": self._running,
            "next_poll": ev.heap_time if pending else None,
            "seq": ev.heap_seq if pending else None,
        }

    def load_state_dict(self, state: dict) -> None:
        """Re-register the pending poll at its journaled ``(time, seq)`` heap
        slot (an older journal's ``kills`` is ignored: the log holds them)."""
        self.revision += 1
        self._running = bool(state.get("running", False))
        next_poll = state.get("next_poll")
        if self._running and next_poll is not None:
            self._event = self.launcher.engine.call_at(
                float(next_poll), self._tick, name="watchdog-poll", seq=state.get("seq")
            )

    # -- the scan ------------------------------------------------------------------
    def _last_signal(self, task: str, instance, now: float) -> float:
        """Freshest evidence of life: app heartbeat, monitor update, or start."""
        last = instance.start_time if instance.start_time is not None else instance.launch_time
        if instance.last_heartbeat is not None:
            last = max(last, instance.last_heartbeat)
        if self.server is not None:
            seen = self.server.last_seen.get(task)
            if seen is not None:
                last = max(last, seen)
        return last if last is not None else now

    def scan(self, now: float) -> None:
        """Kill each running instance whose freshest signal is over the
        timeout old, through the launcher (its retry path relaunches it)."""
        launcher = self.launcher
        for name, rec in launcher.records.items():
            instance = rec.current
            if instance is None or not rec.is_running:
                continue
            last = self._last_signal(name, instance, now)
            if now - last <= self.spec.heartbeat_timeout:
                continue
            launcher.log.point(
                now, f"watchdog-kill:{name}", category="failure",
                last_heartbeat=last, timeout=self.spec.heartbeat_timeout,
            )
            launcher._spawn(
                launcher.signal_kill_task(name, code=self.spec.kill_code, cause="watchdog"),
                f"watchdog-kill:{name}",
            )

    def _tick(self) -> None:
        self.revision += 1
        if not self._running:
            self._event = None
            return
        eng = self.launcher.engine
        self.scan(eng.now)
        self._event = eng.call_after(self.spec.poll, self._tick, name="watchdog-poll")
