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
from typing import TYPE_CHECKING, Callable

from repro.resilience.spec import WatchdogSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.monitor import MonitorServer
    from repro.wms.launcher import Savanna


@dataclass(frozen=True)
class WatchdogKill:
    """One watchdog-triggered kill, for post-run inspection."""

    time: float
    task: str
    last_heartbeat: float


class HeartbeatWatchdog:
    """Polls running instances and kills the ones that stopped beating.

    The poll loop is a self-rescheduling engine callback (not a simulated
    process) so a crashing orchestrator can cancel the pending poll and a
    resumed one can re-register it at the exact journaled heap slot —
    same-timestamp tie-breaking stays bit-identical across a crash.
    """

    def __init__(
        self,
        launcher: "Savanna",
        spec: WatchdogSpec,
        server: "MonitorServer | None" = None,
        on_hang: Callable[[str, float], None] | None = None,
    ) -> None:
        spec.validate()
        self.launcher = launcher
        self.spec = spec
        self.server = server
        self.on_hang = on_hang
        self.kills: list[WatchdogKill] = []
        self._running = False
        self._event = None  # pending poll's SimEvent
        #: Bumped by every call that may change ``state_dict``.
        self.revision = 0

    # -- lifecycle ---------------------------------------------------------------
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
            "kills": [[k.time, k.task, k.last_heartbeat] for k in self.kills],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the kill ledger and re-register the pending poll.

        The poll is pushed back at its journaled ``(time, seq)`` heap slot
        so it fires in the same order relative to every other event as it
        would have in an uninterrupted run.
        """
        self.revision += 1
        self.kills = [
            WatchdogKill(float(t), task, float(hb)) for t, task, hb in state.get("kills", [])
        ]
        self._running = bool(state.get("running", False))
        next_poll = state.get("next_poll")
        if self._running and next_poll is not None:
            self._event = self.launcher.engine.call_at(
                float(next_poll), self._tick, name="watchdog-poll", seq=state.get("seq")
            )

    # -- internals ---------------------------------------------------------------
    def _last_signal(self, task: str, instance) -> float:
        """Freshest evidence of life: app heartbeat, monitor update, or start."""
        last = instance.start_time if instance.start_time is not None else instance.launch_time
        if instance.last_heartbeat is not None:
            last = max(last, instance.last_heartbeat)
        if self.server is not None:
            seen = self.server.last_seen.get(task)
            if seen is not None:
                last = max(last, seen)
        return last if last is not None else self.launcher.engine.now

    def _tick(self) -> None:
        self.revision += 1
        if not self._running:
            self._event = None
            return
        eng = self.launcher.engine
        now = eng.now
        for name, rec in self.launcher.records.items():
            instance = rec.current
            if instance is None or not rec.is_running:
                continue
            last = self._last_signal(name, instance)
            if now - last <= self.spec.heartbeat_timeout:
                continue
            self.kills.append(WatchdogKill(now, name, last))
            self.launcher.trace.point(
                now, f"watchdog-kill:{name}", category="failure",
                last_heartbeat=last, timeout=self.spec.heartbeat_timeout,
            )
            eng.process(
                self.launcher.signal_kill_task(
                    name, code=self.spec.kill_code, cause="watchdog"
                ),
                name=f"watchdog-kill:{name}",
            )
            if self.on_hang is not None:
                self.on_hang(name, now)
        self._event = eng.call_after(self.spec.poll, self._tick, name="watchdog-poll")
