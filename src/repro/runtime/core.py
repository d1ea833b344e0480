"""The one Bootstrap both drivers share (paper §3, Fig. 2).

:class:`RuntimeCore` wires options, tracer, Monitor clients and server,
Decision, health engine, Monitor fabric and journal once, and carries the
bootstrap API, the per-round fabric helpers and the end-of-run exports.
A driver adds what depends on its clock, provides ``now()`` and
``_health_aggregates()``, and sets what they read before calling
``RuntimeCore.__init__``.  A new subsystem is constructed here.
"""

from __future__ import annotations

from typing import Container, Sequence

from repro.cluster.machine import MachinePerf
from repro.core.decision import DecisionStage
from repro.core.monitor import MonitorClient, MonitorServer
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.rules import ArbitrationRules
from repro.core.sensors.base import SensorInstance, SensorSpec
from repro.core.sensors.sources import make_source
from repro.errors import DyflowError, JournalError
from repro.fabric import DegradedModeController, FabricLink
from repro.journal import Journal, JournalSpec
from repro.observability import HealthEngine, report_from_jsonl, write_openmetrics, write_report
from repro.resilience.spec import ResilienceSpec
from repro.runtime.options import RuntimeOptions
from repro.sim.rng import RngRegistry
from repro.staging.hub import DataHub
from repro.telemetry import build_tracer, write_chrome_trace
from repro.telemetry.tracer import Tracer
from repro.util.jsonmsg import Envelope


class FabricState:
    """The Monitor fabric's journaled state, as one component."""

    def __init__(self, runtime: "RuntimeCore") -> None:
        self._rt = runtime

    def state_dict(self) -> dict:
        rt = self._rt
        return {
            "links": {lid: ln.state_dict() for lid, ln in rt.links.items()},
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

    #: Arbitration rules; the threaded driver has none.
    rules: ArbitrationRules | None = None

    def __init__(
        self,
        options: RuntimeOptions | None,
        *,
        workflow_id: str,
        tasks: Container[str],
        hub: DataHub,
        perf: MachinePerf,
        rng: RngRegistry,
        resilience: ResilienceSpec | None,
        client_ids: Sequence[str],
        record_history: bool,
        tracer: Tracer | None,
    ) -> None:
        from repro.lint.preflight import check_mode

        opts = options if options is not None else RuntimeOptions()
        self.options = opts
        self.preflight = check_mode(opts.preflight)
        self.workflow_id = workflow_id
        self.hub = hub
        self._tasks = tasks
        self.resilience = resilience
        self.telemetry = opts.telemetry
        if tracer is None:
            tracer = build_tracer(opts.telemetry, clock=self.now)
        self.tracer = tracer
        self._telemetry_finalized = False
        self.clients = [MonitorClient(cid, perf) for cid in client_ids]
        self.decision = DecisionStage()
        self.server = MonitorServer(on_updates=self.decision.ingest, record_history=record_history)
        self.server.set_tracer(tracer, clock=self.now)
        self.decision.tracer = tracer
        self._sensors: dict[str, SensorSpec] = {}
        # Observability: the health engine evaluates SLOs/anomalies every
        # round and publishes the results back into the Monitor stage via
        # HEALTH sensor sources (see docs/observability.md).
        self.observability = opts.observability
        self.health: HealthEngine | None = None
        if self.observability is not None and self.observability.enabled:
            self.health = HealthEngine(
                self.observability,
                tracer=tracer,
                workflow_id=workflow_id,
                aggregates=self._health_aggregates,
            )
        # Monitor fabric: each client's envelopes cross a FabricLink
        # (lossy transport + ack/retransmit reliability), land in the
        # server's bounded ingress queue, and are drained once per round;
        # ingest staleness drives the Decision stage's degraded mode.
        self.network = resilience.network if resilience is not None else None
        if self.network is not None and not self.network.enabled:
            self.network = None
        self.links: dict[str, FabricLink] = {}
        self.degrade: DegradedModeController | None = None
        self.fabric: FabricState | None = None
        if self.network is not None:
            self.network.validate()
            for c in self.clients:
                self.links[c.client_id] = FabricLink(c.client_id, self.network, rng, tracer=tracer)
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
            if journal.enabled:
                self._journal_spec = journal
        elif journal is not None:
            raise DyflowError(f"journal must be a Journal or JournalSpec, got {journal!r}")

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
                    "has no enabled ObservabilitySpec "
                    "(pass options=RuntimeOptions(observability=...))"
                )
            source: object = self.health.bind_source(var)
        else:
            if task not in self._tasks:
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
            if self.health is not None:
                self.health.alerts.append(alert)
            self.tracer.point("health.alert", "health", **alert.to_dict())
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
        run report is built from the tracer's records, as the report CLI
        builds it from the flushed log."""
        if self._telemetry_finalized or not self.tracer.enabled:
            return
        self._telemetry_finalized = True
        self.tracer.record("metrics", self.now(), metrics=self.tracer.metrics.snapshot())
        self.tracer.flush()
        if self.telemetry is not None and self.telemetry.chrome_trace_path is not None:
            write_chrome_trace(self.telemetry.chrome_trace_path, self.tracer)
        spec = self.observability
        if spec is None or not spec.enabled:
            return
        if spec.openmetrics_path is not None:
            write_openmetrics(spec.openmetrics_path, self.tracer.metrics)
        if spec.analysis and (spec.report_path is not None or spec.report_json_path is not None):
            report = report_from_jsonl(
                self.tracer.records(), top_n=spec.top_n, meta={"workflow": self.workflow_id}
            )
            write_report(report, path=spec.report_path, json_path=spec.report_json_path)
