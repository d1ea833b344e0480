"""The chaos engine: stochastic fault injection on the simulation clock.

Generalizes the seed's single scheduled node failure (§4.5) into a
stochastic fault model in the spirit of WfCommons' synthetic scenarios:
node crashes with exponential/Weibull interarrivals, task crashes, task
hangs, orchestrator (controller) crashes, and staging message drops.
Every draw — interarrival times, victim picks, drop decisions — comes
from its own *named* :class:`~repro.sim.rng.RngRegistry` stream, so a
chaos run with a fixed seed is bit-identical across invocations and new
fault classes never perturb existing ones.

Injection loops are self-rescheduling engine callbacks (not simulated
processes): each fault class keeps exactly one pending event whose
absolute fire time was already drawn.  A crashing orchestrator cancels
those events and journals their ``(time, seq)`` heap slots; resume
re-registers them *without redrawing*, so injected faults land at the
same instants as in an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.failures import FailureInjector
from repro.resilience.spec import FaultModelSpec
from repro.sim.rng import RngRegistry
from repro.util.jsonmsg import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.wms.launcher import Savanna

# Exit codes for injected task faults, distinguishable in STATUS records:
# 137 is reserved for node-death kills (handle_node_failure).
TASK_CRASH_CODE = 139

# Every named RNG stream the engine may draw from, for state capture.
CHAOS_STREAMS = (
    "chaos:node-crash",
    "chaos:node-pick",
    "chaos:task-crash",
    "chaos:task-pick",
    "chaos:task-hang",
    "chaos:hang-pick",
    "chaos:orch-crash",
    "chaos:stage-drop",
    "chaos:msg-drop",
)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for post-run inspection and replay checks."""

    time: float
    kind: str  # "node-crash" | "task-crash" | "task-hang" | "orch-crash" | "msg-drop"
    target: str


class ChaosEngine:
    """Schedules stochastic faults against one launcher's allocation."""

    def __init__(
        self,
        launcher: "Savanna",
        model: FaultModelSpec,
        rng: RngRegistry | None = None,
        injector: FailureInjector | None = None,
    ) -> None:
        model.validate()
        self.launcher = launcher
        self.engine = launcher.engine
        self.model = model
        self.rng = rng if rng is not None else launcher.rng
        if injector is None:
            injector = FailureInjector(self.engine, launcher.machine)
            injector.subscribe_failure(
                lambda node, _t: launcher.handle_node_failure(node.node_id)
            )
        self.injector = injector
        self.history: list[FaultEvent] = []
        self.dropped_envelopes = 0
        self._running = False
        # The orchestrator under chaos; orch-crash fires call its
        # request_crash().  Set by the orchestrator when it adopts us.
        self.orchestrator = None
        # kind -> (stage, SimEvent): the one pending callback per class.
        # stage "arm" = draw-then-schedule bootstrap, "fire" = injection.
        self._pending: dict[str, tuple[str, object]] = {}
        #: Bumped by every call that may change ``state_dict``.
        self.revision = 0

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Arm one injection chain per enabled fault class."""
        if self._running:
            return
        self.revision += 1
        self._running = True
        if self.model.node_mtbf > 0:
            self._set_pending("node-crash", "arm", 0.0)
        if self.model.task_crash_mtbf > 0:
            self._set_pending("task-crash", "arm", 0.0)
        if self.model.task_hang_mtbf > 0:
            self._set_pending("task-hang", "arm", 0.0)
        if self.model.orch_crash_mtbf > 0:
            self._set_pending("orch-crash", "arm", 0.0)
        if self.model.stage_drop_prob > 0:
            hub = self.launcher.hub
            for name in hub.channels():
                self._attach_channel(hub.get_channel(name))
            hub.on_new_channel = self._attach_channel

    def stop(self) -> None:
        """Stop injecting; pending events become no-ops when they fire."""
        self.revision += 1
        self._running = False

    # -- scheduling ---------------------------------------------------------------
    def _stage_fn(self, kind: str, stage: str):
        names = {
            "node-crash": ("_arm_node_crash", "_fire_node_crash"),
            "task-crash": ("_arm_task_crash", "_fire_task_crash"),
            "task-hang": ("_arm_task_hang", "_fire_task_hang"),
            "orch-crash": ("_arm_orch_crash", "_fire_orch_crash"),
        }[kind]
        return getattr(self, names[0] if stage == "arm" else names[1])

    def _set_pending(self, kind: str, stage: str, delay: float) -> None:
        self.revision += 1
        ev = self.engine.call_after(delay, self._stage_fn(kind, stage), name=f"chaos:{kind}")
        self._pending[kind] = (stage, ev)

    def _arm(self, kind: str, delay: float) -> None:
        """Schedule the next fire of *kind* after an already-drawn delay."""
        self.revision += 1
        ev = self.engine.call_after(delay, self._stage_fn(kind, "fire"), name=f"chaos:{kind}")
        self._pending[kind] = ("fire", ev)

    def _halted(self, kind: str) -> bool:
        """Whether injection is stopped; if so, *kind*'s pending event
        has fired as a no-op and is forgotten."""
        if self._running:
            return False
        self.revision += 1
        self._pending.pop(kind, None)
        return True

    # -- injection chains ---------------------------------------------------------
    def _arm_node_crash(self) -> None:
        if self._halted("node-crash"):
            return
        self._arm(
            "node-crash",
            self.model.interarrival(self.model.node_mtbf, self.rng.stream("chaos:node-crash")),
        )

    def _fire_node_crash(self) -> None:
        if self._halted("node-crash"):
            return
        pick = self.rng.stream("chaos:node-pick")
        up = sorted(n.node_id for n in self.launcher.allocation.nodes if n.is_up)
        if up:
            node_id = up[int(pick.integers(len(up)))]
            self.injector.fail_node_now(node_id)
            self._record("node-crash", node_id)
            if self.model.node_repair_time > 0:
                self.injector.recover_node_at(
                    self.engine.now + self.model.node_repair_time, node_id
                )
        self._arm_node_crash()

    def _arm_task_crash(self) -> None:
        if self._halted("task-crash"):
            return
        times = self.rng.stream("chaos:task-crash")
        self._arm("task-crash", float(times.exponential(self.model.task_crash_mtbf)))

    def _fire_task_crash(self) -> None:
        if self._halted("task-crash"):
            return
        pick = self.rng.stream("chaos:task-pick")
        running = sorted(self.launcher.running_tasks())
        if running:
            name = running[int(pick.integers(len(running)))]
            self.engine.process(
                self.launcher.signal_kill_task(name, code=TASK_CRASH_CODE, cause="chaos"),
                name=f"chaos:kill:{name}",
            )
            self._record("task-crash", name)
        self._arm_task_crash()

    def _arm_task_hang(self) -> None:
        if self._halted("task-hang"):
            return
        times = self.rng.stream("chaos:task-hang")
        self._arm("task-hang", float(times.exponential(self.model.task_hang_mtbf)))

    def _fire_task_hang(self) -> None:
        if self._halted("task-hang"):
            return
        pick = self.rng.stream("chaos:hang-pick")
        candidates = sorted(
            name
            for name in self.launcher.running_tasks()
            if self.launcher.record(name).current is not None
            and self.launcher.record(name).current.ctx is not None
        )
        if candidates:
            name = candidates[int(pick.integers(len(candidates)))]
            self.launcher.record(name).current.ctx.inject_hang()
            self._record("task-hang", name)
        self._arm_task_hang()

    def _arm_orch_crash(self) -> None:
        if self._halted("orch-crash"):
            return
        times = self.rng.stream("chaos:orch-crash")
        self._arm("orch-crash", float(times.exponential(self.model.orch_crash_mtbf)))

    def _fire_orch_crash(self) -> None:
        if self._halted("orch-crash"):
            return
        # Record first, then arm the *next* crash, then ask the controller
        # to die: the trace point, the RNG draws, and the pending event are
        # therefore identical whether the orchestrator honors the request
        # (crash+resume run) or ignores it (reference run).
        self._record("orch-crash", "controller")
        self._arm_orch_crash()
        if self.orchestrator is not None:
            self.orchestrator.request_crash()

    # -- staging drops (installed on every hub channel) ---------------------------
    def _attach_channel(self, channel) -> None:
        channel.drop_filter = self._drop_staged_step

    def _drop_staged_step(self, channel_name: str, _data) -> bool:
        if not self._running:
            return False
        self.revision += 1
        if float(self.rng.stream("chaos:stage-drop").random()) >= self.model.stage_drop_prob:
            return False
        self._record("stage-drop", channel_name)
        return True

    # -- message drops (consulted by the orchestrator's delivery path) -----------
    def drop_envelope(self, env: Envelope) -> bool:
        """Decide whether to drop one Monitor client→server envelope."""
        if self.model.msg_drop_prob <= 0:
            return False
        self.revision += 1
        if float(self.rng.stream("chaos:msg-drop").random()) >= self.model.msg_drop_prob:
            return False
        self.dropped_envelopes += 1
        self._record("msg-drop", env.sender)
        return True

    # -- crash recovery ------------------------------------------------------------
    def suspend(self) -> None:
        """Orchestrator crash: cancel pending injections without firing,
        and let go of the dead controller."""
        self.revision += 1
        for _stage, ev in self._pending.values():
            ev.cancel()
        self.orchestrator = None

    def state_dict(self) -> dict:
        """Pending fire slots, history, and chaos RNG stream positions."""
        pending = {}
        for kind, (stage, ev) in sorted(self._pending.items()):
            if ev.cancelled:
                continue
            pending[kind] = {"stage": stage, "at": ev.heap_time, "seq": ev.heap_seq}
        return {
            "running": self._running,
            "pending": pending,
            "history": [[e.time, e.kind, e.target] for e in self.history],
            "dropped_envelopes": self.dropped_envelopes,
            "rng": self.rng.state_dict(names=CHAOS_STREAMS),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore chaos state; re-register pending events at their slots.

        Fire times were drawn before the crash and are restored verbatim
        (no redraw), at the journaled ``(time, seq)`` heap slots, so the
        post-resume fault sequence is the uninterrupted run's.
        """
        self.revision += 1
        self._running = bool(state.get("running", False))
        self.dropped_envelopes = int(state.get("dropped_envelopes", 0))
        self.history = [
            FaultEvent(float(t), kind, target) for t, kind, target in state.get("history", [])
        ]
        self.rng.load_state_dict(state.get("rng", {}))
        if self._running and self.model.stage_drop_prob > 0:
            # Take over the drop filters from the crashed engine's chaos
            # instance; the shared named RNG stream keeps the drop
            # sequence continuous across the handover.
            hub = self.launcher.hub
            for name in hub.channels():
                self._attach_channel(hub.get_channel(name))
            hub.on_new_channel = self._attach_channel
        self._pending = {}
        for kind, slot in state.get("pending", {}).items():
            stage = slot.get("stage", "fire")
            ev = self.engine.call_at(
                float(slot["at"]),
                self._stage_fn(kind, stage),
                name=f"chaos:{kind}",
                seq=slot.get("seq"),
            )
            self._pending[kind] = (stage, ev)

    # -- bookkeeping -------------------------------------------------------------
    def _record(self, kind: str, target: str) -> None:
        self.revision += 1
        self.history.append(FaultEvent(self.engine.now, kind, target))
        self.launcher.trace.point(
            self.engine.now, f"chaos:{kind}:{target}", category="failure"
        )
