"""The simulated DYFLOW service: all four stages on the event clock.

Mirrors the implementation in paper §3/Fig. 2: a Bootstrap wires the
Monitor (clients + server), Decision, Arbitration and Actuation modules;
messages flow through (simulated) queues with realistic read lags; the
Actuation module is a wrapper over the Savanna plugin.

Crash recovery: with a :class:`~repro.journal.JournalSpec` attached, the
control loop journals every observation, plan, op, and barrier to a
write-ahead log.  The loop itself runs as a self-rescheduling engine
callback so that a crash can cancel every controller-owned event (the
next tick, in-flight envelope deliveries, watchdog polls, chaos fires)
and :meth:`resume_from` can re-register them at their journaled
``(time, seq)`` heap slots — the resumed run then pops events in exactly
the order the uninterrupted run would have (see docs/crash-recovery.md).
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.lowlevel import ActionPlan
from repro.core.rules import ArbitrationRules
from repro.errors import DyflowError, JournalError
from repro.journal import AppliedOpsLedger, read_journal
from repro.journal.delta import UnitCache
from repro.resilience import ChaosEngine, HeartbeatWatchdog
from repro.runtime.core import FabricState, RuntimeCore
from repro.runtime.options import RuntimeOptions
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.jsonmsg import Envelope
from repro.wms.launcher import Savanna


def _absent() -> None:
    """The journaled state of a subsystem that is not configured."""
    return None


class DyflowOrchestrator(RuntimeCore):
    """Bootstrap + service loop for one workflow on one allocation."""

    def __init__(
        self,
        launcher: Savanna,
        rules: ArbitrationRules | None = None,
        warmup: float = 120.0,
        settle: float = 120.0,
        poll_interval: float = 1.0,
        num_clients: int = 1,
        allow_victims: bool = True,
        record_history: bool = False,
        graceful_stops: bool = True,
        core_quota: int | None = None,
        options: RuntimeOptions | None = None,
        tracer: Tracer | None = None,
        ignore_crash_requests: bool = False,
        on_crash: Callable[["DyflowOrchestrator"], None] | None = None,
    ) -> None:
        if options is not None and options.resilience is not None:
            launcher.configure_resilience(options.resilience)
        self.engine = launcher.engine
        super().__init__(
            options, launcher=launcher,
            rules=rules if rules is not None else ArbitrationRules.from_workflow(launcher.workflow),
            client_ids=[f"client-{i}" for i in range(max(1, num_clients))],
            record_history=record_history, tracer=tracer, warmup=warmup, settle=settle,
            allow_victims=allow_victims, graceful_stops=graceful_stops, core_quota=core_quota,
        )
        self.poll_interval = poll_interval
        self._stop_when: Callable[[], bool] | None = None
        # Resilience wiring: the orchestrator owns the watchdog (it needs
        # the Monitor server's last-seen times) and the chaos engine (it
        # needs to sit on the client->server delivery path).
        self.watchdog: HeartbeatWatchdog | None = None
        self.chaos: ChaosEngine | None = None
        spec = self.resilience
        if spec is not None and spec.watchdog is not None:
            self.watchdog = HeartbeatWatchdog(launcher, spec.watchdog, server=self.server)
        if spec is not None and spec.faults is not None and spec.faults.any_enabled:
            self.chaos = ChaosEngine(launcher, spec.faults)
            self.chaos.orchestrator = self
        #: Optional subsystems: barrier-state key -> component (``None``
        #: when off).  Each is a revisioned unit (``revision`` +
        #: ``state_dict``; the fabric puts its own units in the barrier's
        #: cache), has ``load_state_dict``, and may define
        #: ``start``/``stop``/``suspend`` (controller crash); start, stop,
        #: _crash, _barrier_units and resume_from walk this table.
        self._components: dict[str, object | None] = {
            "watchdog": self.watchdog,
            "chaos": self.chaos,
            "health": self.health,
            "fabric": self.fabric,
        }
        self.ignore_crash_requests = ignore_crash_requests
        self.on_crash = on_crash
        self.crashed = False
        self._crash_requested = False
        self._tick_event = None
        self._barriers = 0
        self._units = UnitCache()  # the barriers' revisioned units
        #: Control-loop iterations executed (throughput telemetry).
        self.ticks = 0
        self._delivery_ids = itertools.count()
        # did -> (deliver-at, envelope, SimEvent, kind, link-id): data and
        # ack copies in transit ("data" to the server, "ack" back to a link).
        self._inflight_deliveries: dict[
            int, tuple[float, Envelope, object, str, str | None]
        ] = {}
        self._inflight_revision = 0  # moves whenever the in-flight table does
        # deliver-at -> (shared event, [dids]) while a tick's collect phase
        # registers envelopes: same-time deliveries share one engine event,
        # run in the order separate events with consecutive seqs would pop.
        self._batch_slots: dict[float, tuple[object, list[int]]] | None = None

    def _each(self, hook: str) -> None:
        """Call *hook* on every configured subsystem that defines it."""
        for component in self._components.values():
            fn = getattr(component, hook, None)
            if fn is not None:
                fn()

    # -- service ----------------------------------------------------------------------
    def start(self, stop_when: Callable[[], bool] | None = None) -> None:
        """Start the DYFLOW service loop on the event clock.

        ``stop_when`` is checked every tick; when it returns True the
        service winds down (used by scenarios: "experiment finished").
        """
        if self._running:
            raise DyflowError("orchestrator already running")
        if self.preflight != "off":
            # Pure static analysis: draws no RNG stream, reads no clock,
            # so a passing spec runs bit-identically with preflight on.
            from repro.lint.preflight import preflight_orchestrator

            preflight_orchestrator(self, self.preflight)
        self._running = True
        self._stop_when = stop_when
        self._open_journal(
            t=self.engine.now, workflow=self.workflow_id, poll_interval=self.poll_interval
        )
        self.actuation.journal = self._journal
        self._begin(self.engine.now)
        self._each("start")
        self._tick_event = self.engine.call_after(0.0, self._tick, name="dyflow-service")

    def stop(self) -> None:
        self._running = False
        self._each("stop")
        self._close_journal()
        self.finalize_telemetry()

    def finalize_telemetry(self) -> None:
        """Write the end-of-run exports, with the quarantine history first."""
        q = self.launcher.quarantine
        if self.tracer.enabled and not self._telemetry_finalized and q is not None and q.history:
            # Lazy release means there is no event site for releases: release
            # every expired node now, then dump the history so the report
            # can rebuild the intervals.
            q.active(self.engine.now)
            self.tracer.point(
                "run.quarantine-history", "wms",
                events=[[e.time, e.node_id, e.kind] for e in q.history],
            )
        super().finalize_telemetry()

    # -- the control loop (one tick == one journaled barrier) -------------------------
    def _tick(self) -> None:
        if not self._running:
            self._tick_event = None
            return
        traced = self.tracer.enabled
        now = self.engine.now
        self.ticks += 1
        span_ctx = self.tracer.span("loop.tick", "loop") if traced else None
        if span_ctx is not None:
            span_ctx.__enter__()
        # Monitor: run sensors, deliver envelopes after their read lag.
        # The chaos engine may drop envelopes on the way (lossy
        # client->server transport); with a fabric configured each
        # envelope additionally crosses its client's FabricLink (drop /
        # dup / reorder / partition faults, ack-based retransmits).
        self._batch_slots = {}
        try:
            for client in self.clients:
                link = self.links.get(client.client_id)
                for lag, env in client.collect(now):
                    if self.chaos is not None and self.chaos.drop_envelope(env):
                        continue
                    if link is None:
                        self._register_delivery(now + lag, env)
                    else:
                        for at, copy in link.send(env, now, lag=lag):
                            self._register_delivery(at, copy, kind="data", link=link.link_id)
                if link is not None:
                    for at, copy in link.poll(now):
                        self._register_delivery(at, copy, kind="data", link=link.link_id)
        finally:
            self._batch_slots = None
        if self.network is not None:
            self._pump_ingress(now)
        # Decision: evaluate due policies on data delivered so far;
        # degraded mode gates non-essential suggestions afterwards.
        suggestions = self.decision.gate(self.decision.tick(now), now)
        # Arbitration: build a plan unless gated.
        plan = self.arbitration.arbitrate(suggestions, now)
        if span_ctx is not None:
            span_ctx.__exit__(None, None, None)
        # Observability: evaluate SLOs/anomalies and publish health
        # streams before the barrier journals the engine's state.
        if self.health is not None:
            self.health.tick(now)
        if plan is not None:
            if self._journal is not None:
                self._journal.append("plan", plan=plan.to_dict())
            self.engine.process(
                self.actuation.execute(plan, on_done=self._on_plan_done),
                name=f"actuation:{plan.plan_id}",
            )
            self._log_plan(plan)
        if self._stop_when is not None and self._stop_when():
            self._running = False
            self._close_journal()
            self.finalize_telemetry()
            return
        self._tick_event = self.engine.call_after(
            self.poll_interval, self._tick, name="dyflow-service"
        )
        self._journal_barrier(now)
        # A crash request is honored at the first barrier with no plan in
        # flight, after the barrier record (which carries the controller
        # state) is durable.
        if self._crash_requested and self.arbitration._in_flight is None:
            self._crash()

    # -- envelope transit --------------------------------------------------------------
    def _register_delivery(
        self,
        at: float,
        env: Envelope,
        seq: int | None = None,
        kind: str = "data",
        link: str | None = None,
    ) -> None:
        did = next(self._delivery_ids)
        slots = self._batch_slots
        if slots is not None and seq is None and kind == "data":
            entry = slots.get(at)
            if entry is None:
                dids: list[int] = [did]
                ev = self.engine.call_at(
                    at, lambda: self._deliver_batch(dids), name="delivery"
                )
                slots[at] = (ev, dids)
            else:
                ev, dids = entry
                dids.append(did)
            self._inflight_deliveries[did] = (at, env, ev, kind, link)
            self._inflight_revision += 1
            return
        ev = self.engine.call_at(at, lambda: self._deliver(did), name="delivery", seq=seq)
        self._inflight_deliveries[did] = (at, env, ev, kind, link)
        self._inflight_revision += 1

    def _deliver_batch(self, dids: list[int]) -> None:
        for did in dids:
            self._deliver(did)

    def _deliver(self, did: int) -> None:
        entry = self._inflight_deliveries.pop(did, None)
        if entry is None:
            return
        self._inflight_revision += 1
        _at, env, _ev, kind, link_id = entry
        link = self.links.get(link_id) if link_id is not None else None
        if kind == "ack":
            if link is not None:
                link.on_ack(env.sender, env.seq, self.engine.now)
            return
        if self.network is None:
            self._receive(env)
            return
        # Fabric mode: admit into the bounded ingress queue; the tick
        # drains it.
        ack_at = self._offer(env, link, self.engine.now)
        if ack_at is not None:
            self._register_delivery(ack_at, env, kind="ack", link=link_id)

    def _receive(self, env: Envelope) -> None:
        # In fabric mode this is drain time, not arrival: the journal holds
        # only what the server ingested, so replay needs no ingress queue.
        if self._journal is not None and not self._journal.closed:
            self._journal.append("obs", env=env.to_json())
        self.server.receive(env)

    # -- journaling --------------------------------------------------------------------
    def _journal_barrier(self, now: float) -> None:
        if self._journal is None:
            return
        self._barriers += 1
        units = self._barrier_units(self._units)
        self._journal.barrier(now, units)
        every = self._journal.spec.snapshot_every
        if every > 0 and self._barriers % every == 0:
            # The snapshot seals the segment holding this barrier record,
            # so a crash honored at this very tick would otherwise leave
            # no barrier, and the next delta no base — embed the state.
            self._journal.snapshot({**self._snapshot_state(now), "barrier": units.state()})

    def _barrier_units(self, units: UnitCache) -> UnitCache:
        """Bring *units* up to the controller state a barrier journals:
        every entry is a revisioned unit, rebuilt only when its revision
        moved (an empty cache builds them all)."""
        tick_ev = self._tick_event
        clients = self.clients
        units.update(("arbitration",), self.arbitration.revision, self.arbitration.state_dict)
        units.update(
            ("clients",), tuple(c.revision for c in clients),
            lambda: [c.state_dict() for c in clients],
        )
        units.update(("inflight",), self._inflight_revision, self._inflight_state)
        units.update(
            ("next_tick",), (tick_ev.heap_time, tick_ev.heap_seq),  # its heap slot
            lambda: {"at": tick_ev.heap_time, "seq": tick_ev.heap_seq},
        )
        for name, component in self._components.items():
            if component is None:
                units.update((name,), None, _absent)
            elif isinstance(component, FabricState):
                component.update_units(units)
            else:
                units.update((name,), component.revision, component.state_dict)
        return units

    def _inflight_state(self) -> list[dict]:
        return [
            {"at": at, "seq": ev.heap_seq, "env": env.to_json(), "kind": kind, "link": link}
            for at, env, ev, kind, link in self._inflight_deliveries.values()
        ]

    def _snapshot_state(self, now: float) -> dict:
        """What ``resume_from`` loads wholesale: controller state only.  The
        run log (the metric history with it) and the finished plans are
        on the launcher, which survives a crash; ``plans`` holds the
        unfinished plan, if one is in flight, for ``resume_plan`` to finish."""
        in_flight = self.arbitration._in_flight
        return {
            "t": now,
            "server": self.server.state_dict(),
            "decision": self.decision.state_dict(),
            "plans": [in_flight.to_dict()] if in_flight is not None else [],
        }

    # -- crash + resume ----------------------------------------------------------------
    def request_crash(self) -> None:
        """Ask the controller to die at its next eligible barrier.

        Honored only when journaling is on and crash requests are not
        being ignored (the *reference* run of a crash/resume equivalence
        pair sets ``ignore_crash_requests=True`` so the chaos engine's
        draws and trace points stay identical while the controller lives).
        """
        if self.ignore_crash_requests or self._journal is None or not self._running:
            return
        self._crash_requested = True

    def hard_crash(self) -> None:
        """Die *now*, even mid-plan.

        Unlike a barrier crash this makes no bit-identity promise — the
        interrupted plan is finished exactly-once on resume via the
        op-issued/op-completed ledger and launcher effect probes.
        """
        if self._journal is None or not self._running:
            raise DyflowError("hard_crash requires a running, journaled orchestrator")
        self.actuation.abort_requested = True
        self._crash()

    def _crash(self) -> None:
        now = self.engine.now
        self._crash_requested = False
        self._running = False
        self.crashed = True
        self._journal.append("crash", t=now)
        self._close_journal()
        self.launcher.log.point(now, "orchestrator-crash", category="journal")
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        for _at, _env, ev, _kind, _link in self._inflight_deliveries.values():
            ev.cancel()
        self._inflight_deliveries = {}
        self._inflight_revision += 1
        self._each("suspend")
        for client in self.clients:
            client.unwatch()
        self.launcher.unsubscribe_start(self._on_task_start)
        if self.on_crash is not None:
            self.on_crash(self)

    def resume_from(self, journal_dir: str, stop_when: Callable[[], bool] | None = None) -> "DyflowOrchestrator":
        """Rebuild controller state from *journal_dir* and resume the loop.

        Call on a freshly constructed orchestrator carrying the same
        bootstrap configuration (sensors, policies, rules) as the crashed
        one, over the *surviving* launcher and engine, at the simulated
        instant of the crash.  The latest snapshot is loaded, the WAL
        suffix is replayed (observations, restarts, Decision ticks, plan
        upserts), the last barrier's controller state is applied
        wholesale, and every pending controller event is re-registered at
        its journaled heap slot.  An unfinished plan is completed
        exactly-once through the op ledger.  The launcher's run log and
        plans survived the crash: replay appends nothing to the log, and
        each journaled plan replaces the one with its id, so the in-flight
        plan finished is the journaled one.
        """
        if self._running:
            raise DyflowError("orchestrator already running")
        js = read_journal(journal_dir)
        snap = js.snapshot_state or {}
        if snap:
            self.server.load_state_dict(snap["server"])
            self.decision.load_state_dict(snap["decision"])
        output = self.launcher.output
        for d in snap.get("plans", []):
            if d.get("execution_end") is None:  # a finished one is already output
                output.upsert_plan(ActionPlan.from_dict(d))

        # Replay with telemetry and the run log muted: the metrics and the
        # log survived the crash and already hold what the replayed
        # records produced — replay rebuilds state only.
        server_tracer, decision_tracer = self.server.tracer, self.decision.tracer
        self.server.tracer = NULL_TRACER
        self.decision.tracer = NULL_TRACER
        self.launcher.log.muted = True
        try:
            for rec in js.records:
                kind = rec["kind"]
                if kind == "obs":
                    self.server.receive(Envelope.from_json(rec["env"]))
                elif kind == "task-restart":
                    self.server.on_task_restart(rec["task"])
                    if rec.get("incarnation", 0) > 0:
                        self.decision.on_task_restart(rec["task"])
                elif kind == "barrier":
                    self.decision.tick(rec["t"])
                elif kind in ("plan", "plan-done"):
                    output.upsert_plan(ActionPlan.from_dict(rec["plan"]))
        finally:
            self.server.tracer = server_tracer
            self.decision.tracer = decision_tracer
            self.launcher.log.muted = False
        b = js.barrier_state
        if b is None:
            raise JournalError(
                f"journal {journal_dir!r} holds no barrier record; nothing to resume"
            )
        # An older journal's "decision_outcomes" (and the alert, chaos and
        # outcome histories inside its units) are already in the run log.
        self.arbitration.load_state_dict(b["arbitration"])
        client_states = b.get("clients", [])
        if len(client_states) != len(self.clients):
            raise JournalError(
                f"{len(client_states)} journaled clients for {len(self.clients)} configured"
            )
        for client, cstate in zip(self.clients, client_states):
            client.load_state_dict(cstate)
        for name, component in self._components.items():
            if component is not None and b.get(name) is not None:
                component.load_state_dict(b[name])

        # Take over the journal (claims the next fencing epoch) and keep
        # the snapshot cadence aligned with the uninterrupted run.
        self._reopen_journal(journal_dir, js)
        self.actuation.journal = self._journal
        self.actuation.abort_requested = False
        every = self._journal.spec.snapshot_every
        replayed_barriers = sum(1 for r in js.records if r["kind"] == "barrier")
        self._barriers = js.next_snapshot * every + replayed_barriers if every > 0 else replayed_barriers
        self._running = True
        self._stop_when = stop_when
        self.crashed = False

        # Re-register controller events at their journaled (time, seq)
        # slots; the cancelled originals are skipped by the engine, so
        # pop order matches the uninterrupted run exactly.
        self._inflight_deliveries = {}
        self._inflight_revision += 1
        for item in b.get("inflight", []):
            self._register_delivery(
                float(item["at"]), Envelope.from_json(item["env"]), seq=item.get("seq"),
                kind=item.get("kind", "data"), link=item.get("link"),
            )
        nt = b["next_tick"]
        self._tick_event = self.engine.call_at(
            float(nt["at"]), self._tick, name="dyflow-service", seq=nt.get("seq")
        )
        self.launcher.log.point(
            self.engine.now, "orchestrator-resume", category="journal",
            epoch=self._journal.epoch,
        )
        # A plan was mid-actuation when the controller died (hard crash):
        # finish it exactly-once through the ledger + effect probes.
        inflight_plan = self.arbitration._in_flight
        if inflight_plan is not None:
            ledger = AppliedOpsLedger.from_records(js.records)
            self.engine.process(
                self.actuation.resume_plan(inflight_plan, ledger, on_done=self._on_plan_done),
                name=f"actuation-resume:{inflight_plan.plan_id}",
            )
        return self

    # -- results --------------------------------------------------------------------------
    def response_times(self) -> list[tuple[str, float]]:
        """(plan id, response seconds) for every executed plan."""
        return [
            (p.plan_id, p.response_time)
            for p in self.launcher.output.plans
            if p.execution_end is not None
        ]
