"""The one Bootstrap both drivers share (paper §3, Fig. 2).

:class:`RuntimeCore` wires options, tracer, Monitor clients and server,
Decision, Arbitration, Actuation, health engine, Monitor fabric and
journal once over a launcher (:class:`~repro.wms.launcher.LauncherCore`:
the simulated Savanna or the wall-clock live one), and carries the
bootstrap API, the task-restart hooks, the per-round fabric helpers and
the end-of-run exports.  A driver adds only how its clock runs the
stages.  A new subsystem is constructed here.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.actuation import ActuationStage
from repro.core.arbitration import ArbitrationStage
from repro.core.decision import DecisionStage
from repro.core.lowlevel import ActionPlan
from repro.core.monitor import MonitorClient, MonitorServer
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.rules import ArbitrationRules
from repro.core.sensors.base import SensorInstance, SensorSpec
from repro.core.sensors.sources import make_source
from repro.errors import DyflowError, JournalError
from repro.fabric import DegradedModeController, FabricLink
from repro.journal import Journal, JournalSpec
from repro.journal.delta import UnitCache
from repro.observability import HealthEngine, report_from_jsonl, write_openmetrics, write_report
from repro.observability.health import log_alert
from repro.runtime.options import RuntimeOptions
from repro.telemetry import build_tracer, write_chrome_trace
from repro.telemetry.tracer import Tracer
from repro.util.jsonmsg import Envelope
from repro.wms.launcher import LauncherCore


class FabricState:
    """The Monitor fabric's journaled state, as one component."""

    def __init__(self, runtime: "RuntimeCore") -> None:
        self._rt = runtime

    def state_dict(self, units: UnitCache | None = None) -> dict:
        """Each link is a revisioned unit of *units* (a barrier's cache;
        none builds every link); the server's queue and degraded mode are
        rebuilt."""
        rt = self._rt
        units = units if units is not None else UnitCache()
        return {
            "links": {
                lid: units.get(("fabric", "links", lid), ln.revision, ln.state_dict)
                for lid, ln in rt.links.items()
            },
            "server": rt.server.fabric_state_dict(),
            "degraded": rt.degrade.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        rt = self._rt
        for lid, lstate in state["links"].items():
            link = rt.links.get(lid)
            if link is None:
                raise JournalError(f"journaled fabric link {lid!r} is not configured — drift")
            link.load_state_dict(lstate)
        rt.server.load_fabric_state(state["server"])
        rt.degrade.load_state_dict(state["degraded"])
        rt.decision.set_degraded(rt.degrade.degraded)


class RuntimeCore:
    """Control-plane wiring shared by both drivers."""

    def __init__(
        self,
        options: RuntimeOptions | None,
        *,
        launcher: LauncherCore,
        rules: ArbitrationRules,
        client_ids: Sequence[str],
        record_history: bool,
        tracer: Tracer | None,
        **arbitration,
    ) -> None:
        from repro.lint.preflight import check_mode

        opts = options if options is not None else RuntimeOptions()
        self.options = opts
        self.preflight = check_mode(opts.preflight)
        self.launcher = launcher
        self.workflow_id = launcher.workflow_id
        self.hub = launcher.hub
        self.resilience = resilience = launcher.resilience
        self.telemetry = opts.telemetry
        if tracer is None:
            tracer = build_tracer(opts.telemetry, clock=self.now)
        self.tracer = tracer
        self._telemetry_finalized = False
        self.observability = opts.observability
        if self.observability is not None and not tracer.enabled:
            # Every observability output reads the telemetry in the run log.
            for name in ("report_path", "report_json_path", "openmetrics_path"):
                if getattr(self.observability, name):
                    raise DyflowError(
                        f"observability {name} needs a <telemetry> section "
                        "(pass options=RuntimeOptions(telemetry=TelemetrySpec(...)))"
                    )
        self.clients = [MonitorClient(cid, launcher.perf) for cid in client_ids]
        self.decision = DecisionStage(log=launcher.log)
        self.server = MonitorServer(
            on_updates=self.decision.ingest, record_history=record_history, log=launcher.log,
        )
        self.server.set_tracer(tracer, clock=self.now)
        self.decision.tracer = tracer
        self._sensors: dict[str, SensorSpec] = {}
        # Observability: the health engine evaluates SLOs/anomalies every
        # round and publishes the results back into the Monitor stage via
        # HEALTH sensor sources (see docs/observability.md).
        self.health: HealthEngine | None = None
        if self.observability is not None:
            self.health = HealthEngine(
                self.observability,
                tracer=tracer,
                workflow_id=self.workflow_id,
                aggregates=self._health_aggregates,
                log=launcher.log,
            )
        # Monitor fabric: each client's envelopes cross a FabricLink
        # (lossy transport + ack/retransmit reliability), land in the
        # server's bounded ingress queue, and are drained once per round;
        # ingest staleness drives the Decision stage's degraded mode.
        self.network = resilience.network if resilience is not None else None
        self.links: dict[str, FabricLink] = {}
        self.degrade: DegradedModeController | None = None
        self.fabric: FabricState | None = None
        if self.network is not None:
            self.network.validate()
            for c in self.clients:
                self.links[c.client_id] = FabricLink(
                    c.client_id, self.network, launcher.rng, tracer=tracer
                )
            self.server.configure_fabric(self.network)
            self.degrade = DegradedModeController(self.network)
            self.fabric = FabricState(self)
        # Crash recovery: `journal` may be a JournalSpec (the journal is
        # opened at start()) or an already-open Journal.
        self._journal = None
        self._journal_spec = None
        journal = opts.journal
        if isinstance(journal, Journal):
            self._journal = journal
        elif isinstance(journal, JournalSpec):
            self._journal_spec = journal
        elif journal is not None:
            raise DyflowError(f"journal must be a Journal or JournalSpec, got {journal!r}")
        launcher.attach_tracer(tracer)
        self.rules = rules
        self.arbitration = ArbitrationStage(launcher, rules, **arbitration)
        self.actuation = ActuationStage(launcher)
        self.arbitration.tracer = tracer
        self.actuation.tracer = tracer
        self._running = False
        launcher.subscribe_start(self._on_task_start)

    def now(self) -> float:
        return self.launcher.now()

    def _begin(self, now: float) -> None:
        """The run starts: record its allocation (the utilization analysis's
        node inventory) and open Arbitration's warmup gate."""
        self.tracer.point(
            "run.allocation", "wms",
            nodes={n.node_id: n.cores for n in self.launcher.rm.allocation.nodes},
        )
        self.arbitration.begin(now)

    @property
    def plans(self) -> list[ActionPlan]:
        """Every plan built, in creation order: a copy of the run output."""
        return list(self.launcher.output.plans)

    def _health_aggregates(self) -> dict[str, float]:
        """Runtime-level health aggregates published every evaluation."""
        rm, q = self.launcher.rm, self.launcher.quarantine
        total = sum(n.cores for n in rm.allocation.nodes)
        assigned = rm.assigned_total().total_cores
        return {
            "cluster.total_cores": float(total),
            "cluster.assigned_cores": float(assigned),
            "cluster.utilization": assigned / total if total else 0.0,
            "quarantine.count": float(len(q.active(self.now()))) if q is not None else 0.0,
        }

    # -- bootstrap configuration ---------------------------------------------------
    def add_sensor(self, spec: SensorSpec) -> None:
        if spec.sensor_id in self._sensors:
            raise DyflowError(f"duplicate sensor id {spec.sensor_id!r}")
        self._sensors[spec.sensor_id] = spec

    def monitor_task(
        self,
        task: str,
        sensor_id: str,
        info_source: str | None = None,
        var: str | None = None,
        client: int = 0,
    ) -> SensorInstance:
        """Bind a sensor to a monitored task on one Monitor client."""
        spec = self._sensors.get(sensor_id)
        if spec is None:
            raise DyflowError(f"monitor-task references unknown sensor {sensor_id!r}")
        if spec.source_type.upper() == "HEALTH":
            # Health streams monitor the orchestrator itself, not a
            # workflow task: bind straight to the health engine's feed.
            if self.health is None:
                raise DyflowError(
                    f"sensor {sensor_id!r} uses a HEALTH source but the orchestrator "
                    "has no ObservabilitySpec "
                    "(pass options=RuntimeOptions(observability=...))"
                )
            source: object = self.health.bind_source(var)
        else:
            if task not in self.launcher.records:
                raise DyflowError(f"monitor-task references unknown task {task!r}")
            source = make_source(
                spec.source_type, self.hub, self.workflow_id, task,
                info_source=info_source, var=var,
            )
        instance = SensorInstance(
            spec=spec, workflow_id=self.workflow_id, task=task, source=source
        )
        self.clients[client % len(self.clients)].add_binding(instance)
        return instance

    def add_policy(self, spec: PolicySpec) -> None:
        self.decision.add_policy(spec)

    def apply_policy(self, application: PolicyApplication) -> None:
        self.decision.apply_policy(application)

    # -- launcher and Actuation callbacks --------------------------------------------
    def _on_task_start(self, instance) -> None:
        """A task (re)started: reset monitor connections, epochs, windows."""
        if self._journal is not None and not self._journal.closed and self._running:
            self._journal.append(
                "task-restart", task=instance.task, incarnation=instance.incarnation
            )
        for client in self.clients:
            client.on_task_restart(instance.task)
        self.server.on_task_restart(instance.task)
        if instance.incarnation > 0:
            self.decision.on_task_restart(instance.task)

    def _log_plan(self, plan: ActionPlan) -> None:
        """A plan was built: its ``plan:<id>`` point and ops, which
        ``explain`` reads."""
        self.launcher.log.point(
            plan.created, f"plan:{plan.plan_id}", category="plan",
            ops=[op.describe() for op in plan.ordered_ops()],
        )

    def _on_plan_done(self, plan: ActionPlan) -> None:
        if self._journal is not None and not self._journal.closed:
            self._journal.append("plan-done", plan=plan.to_dict())
        self.arbitration.on_plan_executed(plan, self.now())
        self.launcher.log.add_span(
            "DYFLOW", plan.plan_id, plan.execution_start, plan.execution_end,
            category="adjust", response=plan.response_time,
        )

    # -- one round of the Monitor fabric ---------------------------------------------
    def _offer(self, env: Envelope, link: FabricLink | None, now: float) -> float | None:
        """Admit *env* into the bounded ingress queue; returns when its ack
        reaches *link*, if one will.  A shed envelope is not acked and
        rides the client's retransmit timer: the backpressure signal."""
        if self.server.offer(env) and link is not None:
            return link.plan_ack(env, now)
        return None

    def _receive(self, env: Envelope) -> None:
        self.server.receive(env)

    def _pump_ingress(self, now: float) -> None:
        """Fabric mode: drain the ingress queue (budgeted) into the real
        receive path; ingest staleness then drives degraded mode."""
        for env in self.server.take_ingress():
            self.server.note_staleness(max(0.0, now - env.time))
            self._receive(env)
        for alert in self.degrade.tick(now, self.server.last_seen):
            log_alert(self.launcher.log, self.tracer, alert)
        self.decision.set_degraded(self.degrade.degraded)

    # -- journal ------------------------------------------------------------------
    def _open_journal(self, **meta) -> None:
        """Open the configured journal, its ``meta`` record carrying *meta*,
        unless one is already open."""
        if self._journal is None and self._journal_spec is not None:
            self._journal = Journal.open(self._journal_spec, self.tracer.metrics, **meta)

    def _reopen_journal(self, journal_dir: str, state) -> None:
        """Take over the journal whose *state* was resumed from (next fencing epoch)."""
        self._journal = Journal.reopen(journal_dir, metrics=self.tracer.metrics, state=state)

    def _close_journal(self) -> None:
        if self._journal is not None and not self._journal.closed:
            self._journal.sync()
            self._journal.close()

    # -- end-of-run outputs -----------------------------------------------------------
    def finalize_telemetry(self) -> None:
        """Record a final metrics snapshot, flush the JSONL log, and write
        the Chrome trace and observability exports, if configured.  The
        run report is built from the run log, as the report CLI builds it
        from the flushed file."""
        if self._telemetry_finalized or not self.tracer.enabled:
            return
        self._telemetry_finalized = True
        self.tracer.record("metrics", self.now(), metrics=self.tracer.metrics.snapshot())
        self.tracer.flush()
        if self.telemetry is not None and self.telemetry.chrome_trace_path is not None:
            write_chrome_trace(self.telemetry.chrome_trace_path, self.tracer)
        spec = self.observability
        if spec is None:
            return
        if spec.openmetrics_path is not None:
            write_openmetrics(spec.openmetrics_path, self.tracer.metrics)
        if spec.report_path is not None or spec.report_json_path is not None:
            report = report_from_jsonl(
                self.launcher.log.records(), top_n=spec.top_n, meta={"workflow": self.workflow_id}
            )
            write_report(report, path=spec.report_path, json_path=spec.report_json_path)
