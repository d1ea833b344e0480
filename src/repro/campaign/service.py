"""The multi-tenant campaign service: bulkhead-isolated workflows.

Many tenants submit cells (parameterized workflow runs) into one shared
simulated machine.  The design invariant is **bulkhead isolation** —
nothing one tenant does can change what another tenant computes:

* every cell runs on a *fresh* :class:`~repro.sim.engine.SimEngine`
  over a machine partition of exactly the cores it leased from the
  campaign-level :class:`~repro.campaign.arbiter.MachineArbiter`, so a
  tenant's scenario fingerprint is a pure function of its own
  ``(factory, params, seed, cores)`` — bit-identical whether it runs
  solo or next to a crash-looping neighbor;
* admission is quota- and queue-bounded (reject-with-retry-after, see
  :mod:`repro.campaign.registry`), so a runaway submitter is throttled
  at the door;
* cell failures feed the per-tenant
  :class:`~repro.campaign.breaker.TenantBreaker`; a crash-looping
  tenant is quarantined for a cooldown instead of starving neighbors,
  and a per-tenant SLO fires a :class:`~repro.observability.HealthAlert`
  one failure *before* the breaker trips, so degradation is visible
  before containment;
* every tenant journals into its **own WAL directory** via
  :mod:`repro.journal`; one tenant's crash/resume replays only that
  tenant, and a supervisor crash mid-campaign resumes the grid with
  completed cells replayed verbatim from the per-tenant ledgers.

The service clock is *logical* (one tick per executed cell, plus
explicit :meth:`advance_time`), so every decision — breaker windows,
retry-after hints, fair-share order — replays deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.campaign.arbiter import Lease, MachineArbiter
from repro.campaign.breaker import TenantBreaker
from repro.campaign.executor import COMPLETED, POISONED, SupervisedExecutor
from repro.campaign.registry import AdmissionController, AdmissionResult, TenantRegistry
from repro.campaign.spec import ExecutorSpec, TenantsSpec
from repro.campaign.statepoint import statepoint_id
from repro.errors import ReproError
from repro.journal import JournalSpec, ResumableJournal, RunLedger
from repro.observability.fleet import FleetHealthEngine
from repro.observability.slo import HealthAlert, SloEvaluator
from repro.observability.spec import ObservabilitySpec, SloSpec
from repro.observability.watch import WatchStream
from repro.resilience.spec import QuarantineSpec
from repro.sim.rng import RngRegistry
from repro.telemetry.metrics import instrument_stat

#: Subdirectory of the journal root holding campaign-level (not
#: per-tenant) durable state: the fleet WAL, the watch stream, and
#: flight-recorder dumps.
FLEET_DIR = "__fleet__"


@dataclass(frozen=True)
class TenantCell:
    """One unit of tenant work: a parameterized workflow run.

    ``factory(**params)`` builds the cell's
    :class:`~repro.wms.spec.WorkflowSpec`; the cell id is derived from
    the statepoint (params + seed + cores) unless given explicitly.
    """

    tenant_id: str
    factory: Callable[..., Any]
    params: dict[str, Any] = field(default_factory=dict)
    nprocs: int = 1
    seed: int = 0
    max_time: float = 10_000.0
    cell_id: str = ""

    def resolved_id(self, index: int) -> str:
        if self.cell_id:
            return self.cell_id
        return statepoint_id(
            self.tenant_id, index, self.params, seed=self.seed, nprocs=self.nprocs
        )


def run_cell_scenario(cell: TenantCell, lease: Lease) -> dict[str, Any]:
    """Default cell runner: the workflow alone on its bulkhead partition.

    Builds a fresh engine + machine of exactly the leased nodes, runs
    the cell's workflow without an orchestrator, and returns a JSON
    summary carrying the scenario fingerprint (the bit-identity oracle
    the isolation proof compares).
    """
    from repro.cluster import BatchScheduler, summit
    from repro.experiments.results import ScenarioResult
    from repro.experiments.runner import execute_scenario
    from repro.journal.resume import scenario_fingerprint
    from repro.sim.engine import SimEngine
    from repro.wms import Savanna

    engine = SimEngine()
    machine = summit(lease.nodes, cores_per_node=lease.cores_per_node)
    scheduler = BatchScheduler(engine, machine)
    job = scheduler.submit(lease.nodes, walltime_limit=cell.max_time)
    engine.run(until=0)
    workflow = cell.factory(**cell.params)
    launcher = Savanna(engine, workflow, job.allocation, rng=RngRegistry(cell.seed))
    makespan = execute_scenario(engine, launcher, None, max_time=cell.max_time)
    result = ScenarioResult(
        name=workflow.workflow_id,
        machine=f"partition-{lease.nodes}n",
        use_dyflow=False,
        makespan=makespan,
        trace=launcher.trace,
        launcher=launcher,
    )
    return {
        "makespan": makespan,
        "fingerprint": scenario_fingerprint(result),
        "nodes": lease.nodes,
        "cores": lease.cores,
    }


class CampaignService:
    """Admit, arbitrate, supervise, and journal many tenants' cells."""

    def __init__(
        self,
        spec: TenantsSpec,
        journal_root: str | None = None,
        run_cell: Callable[[TenantCell, Lease], dict] | None = None,
        rng_seed: int = 0,
        observability: ObservabilitySpec | None = None,
    ) -> None:
        spec.validate()
        if spec.nodes <= 0 or spec.cores_per_node <= 0:
            raise ReproError(
                "CampaignService needs a concrete machine shape "
                "(tenants nodes/cores-per-node)"
            )
        self.spec = spec
        self.registry = TenantRegistry()
        for t in spec.tenants:
            self.registry.register(t)
        self._now = 0.0
        self.breaker = TenantBreaker(
            spec.breaker if spec.breaker is not None else QuarantineSpec(),
            clock=lambda: self._now,
        )
        self.admission = AdmissionController(self.registry, self.breaker)
        self.arbiter = MachineArbiter(spec.nodes, spec.cores_per_node)
        # The service supervises cells in-process (serial mode): cell
        # factories are closures, which worker processes cannot receive.
        # Process-parallel grids go through SupervisedExecutor directly
        # with a picklable grid function (see benchmarks/bench_multitenant).
        exec_spec = spec.executor if spec.executor is not None else ExecutorSpec()
        self.executor = SupervisedExecutor(
            replace(exec_spec, workers=0), rng=RngRegistry(rng_seed)
        )
        self.run_cell = run_cell if run_cell is not None else run_cell_scenario
        self.journal_root = journal_root
        self.results: list[dict[str, Any]] = []
        self._submit_index: dict[str, int] = {}
        # Per-tenant early-warning SLO: fires when the failure count
        # within the breaker window reaches one short of the trip
        # threshold — degraded is visible before quarantined.
        warn_at = max(1, self.breaker.spec.failures - 1)
        self._slo: dict[str, SloEvaluator] = {
            tid: SloEvaluator(SloSpec(
                metric=f"tenant.{tid}.failures", stat="count",
                op="LT", threshold=float(warn_at), severity="warning",
            ))
            for tid in self.registry.ids()
        }
        self.alerts: dict[str, list[HealthAlert]] = {
            tid: [] for tid in self.registry.ids()
        }
        # Fleet observability plane (repro.observability.fleet / .watch):
        # present only with a <fleet> section; without one a cell costs
        # a couple of None checks.
        self.observability = observability
        fleet_spec = None
        if observability is not None and observability.fleet is not None:
            observability.validate()
            fleet_spec = observability.fleet
        self.fleet: FleetHealthEngine | None = None
        self._watch: WatchStream | None = None
        self._fleet_slo: dict[str, list[SloEvaluator]] = {}
        self._resume_replay = False
        # Read here (to restore the last barrier), claimed by run_pending().
        self._fleet_wal = ResumableJournal(None)
        if fleet_spec is not None:
            self.fleet = FleetHealthEngine(fleet_spec)
            watch_path = fleet_spec.watch_path
            if journal_root is not None:
                fleet_dir = os.path.join(journal_root, FLEET_DIR)
                os.makedirs(fleet_dir, exist_ok=True)
                if watch_path is None:
                    watch_path = os.path.join(fleet_dir, "watch.jsonl")
                self._fleet_wal = ResumableJournal(
                    JournalSpec(dir=os.path.join(fleet_dir, "wal")), scope="fleet"
                )
            self._watch = WatchStream(watch_path)
            # Tenant-scoped SLOs declared on the observability spec run
            # against the tenant's fleet rollup registry.
            known = set(self.registry.ids())
            for slo in observability.slos:
                if not slo.tenant:
                    continue
                if slo.tenant not in known:
                    # The lint counterpart is DY412; at runtime this is a
                    # hard error, not a silent no-op objective.
                    raise ReproError(
                        f"slo {slo.key!r} references unknown tenant {slo.tenant!r}"
                    )
                self._fleet_slo.setdefault(slo.tenant, []).append(SloEvaluator(slo))
            # A watch stream reloaded with committed events means this
            # service is resuming a crashed supervisor: until it executes
            # a fresh cell (or the clock moves), submissions are replays
            # of the pre-crash sequence, not live traffic.
            self._resume_replay = bool(self._watch.read(0))
            self._restore_fleet_barrier()
            self._emit("campaign-open", "campaign-open",
                       tenants=sorted(self.registry.ids()))

    # -- clock --------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def advance_time(self, dt: float) -> None:
        """Advance the logical clock (e.g. to let a cooldown elapse)."""
        if dt < 0:
            raise ReproError("time cannot go backwards")
        self._now += dt
        self._resume_replay = False

    # -- watch stream ---------------------------------------------------------------
    def _emit(self, kind: str, key: str, **payload: Any) -> bool:
        """Append one watch event (idempotent by *key*); True if new."""
        if self._watch is None:
            return False
        return self._watch.emit(kind, key, self._now, **payload)

    def watch(self, since: int = 0) -> list[dict[str, Any]]:
        """The typed, seekable event stream (admissions, leases, cells,
        breaker/SLO transitions) from cursor *since*.

        Requires the fleet plane
        (``ObservabilitySpec(fleet=FleetSpec(...))``); with a journal
        root the stream is durable JSONL at :attr:`watch_path` and stays
        byte-identical across a supervisor crash/resume.
        """
        if self._watch is None:
            raise ReproError(
                "watch() needs the fleet observability plane "
                "(pass observability=ObservabilitySpec(fleet=FleetSpec()))"
            )
        return self._watch.read(since)

    @property
    def watch_path(self) -> str | None:
        return self._watch.path if self._watch is not None else None

    # -- submission ---------------------------------------------------------------
    def submit(self, cell: TenantCell) -> AdmissionResult:
        """Admit one cell (statepoint-id'd) through the tenant's gate."""
        index = self._submit_index.get(cell.tenant_id, 0)
        cell_id = cell.resolved_id(index)
        if self._watch is not None and self._watch.seen(f"admit:{cell_id}"):
            # Resume re-submission of a cell the pre-crash service already
            # admitted: bypass the gate — a breaker restored from the fleet
            # barrier may be quarantining the tenant *now*, but rejecting
            # here would drop accepted work (parked cells, ledger replays)
            # and fork the watch stream from the uninterrupted run.
            state = self.admission.registry.require(cell.tenant_id)
            state.queue.append((cell_id, cell))
            state.submitted += 1
            self._submit_index[cell.tenant_id] = index + 1
            return AdmissionResult(
                accepted=True, tenant_id=cell.tenant_id,
                queue_depth=len(state.queue),
            )
        if self._watch is not None and self._resume_replay:
            for reason in ("quarantined", "queue-full"):
                if self._watch.seen(f"reject:{cell_id}:{reason}"):
                    # The pre-crash service turned this submission away;
                    # replay the same verdict without re-counting it.
                    state = self.admission.registry.require(cell.tenant_id)
                    return AdmissionResult(
                        accepted=False, tenant_id=cell.tenant_id,
                        reason=reason, retry_after=0.0,
                        queue_depth=len(state.queue),
                    )
        result = self.admission.submit(
            cell.tenant_id, (cell_id, cell), now=self._now
        )
        if result.accepted:
            self._submit_index[cell.tenant_id] = index + 1
            self._emit("admit", f"admit:{cell_id}",
                       tenant=cell.tenant_id, cell_id=cell_id)
        else:
            fresh = self._emit(
                "reject", f"reject:{cell_id}:{result.reason}",
                tenant=cell.tenant_id, cell_id=cell_id, reason=result.reason,
            )
            if fresh and self.fleet is not None:
                # Gated on the dedup so a crash/resume's re-submissions
                # do not double-count into the rollup.
                self.fleet.record_rejection(cell.tenant_id)
        return result

    # -- journals -------------------------------------------------------------------
    def _ledger(self, tenant_id: str) -> RunLedger:
        """The tenant's cell ledger, over its own WAL directory."""
        spec = None
        if self.journal_root is not None:
            spec = JournalSpec(dir=os.path.join(self.journal_root, tenant_id))
        return RunLedger("cell", spec, tenant=tenant_id)

    def _fleet_state(self) -> dict[str, Any]:
        assert self.fleet is not None
        return {
            "now": self._now,
            "fleet": self.fleet.state_dict(),
            "breaker": self.breaker.state_dict(),
            "slo": {tid: self._slo[tid].state_dict() for tid in sorted(self._slo)},
            "fleet_slo": {
                ev.spec.key: ev.state_dict()
                for tid in sorted(self._fleet_slo)
                for ev in self._fleet_slo[tid]
            },
            "alerts": {
                tid: [a.to_dict() for a in self.alerts[tid]]
                for tid in sorted(self.alerts)
            },
        }

    def _fleet_barrier(self) -> None:
        """Make the fleet plane durable after one executed cell.

        The barrier carries everything the resumed service cannot
        rebuild from the per-tenant ledgers alone — the logical clock,
        breaker windows, SLO evaluator streaks, alert lists, and the
        fleet rollup registries — so rollups and watch streams come back
        bit-identical.  It is the orchestrator's ``barrier`` record: full
        for a writer's first, then a delta against the one before.
        """
        journal = self._fleet_wal.journal
        if journal is None:
            return
        journal.barrier(self._now, self._fleet_state())
        journal.sync()
        if self._watch is not None:
            self._watch.sync()

    def _restore_fleet_barrier(self) -> None:
        state = self._fleet_wal.barrier_state
        if state is None:
            return
        assert self.fleet is not None
        self._now = float(state["now"])
        self.fleet.load_state_dict(state["fleet"])
        self.breaker.load_state_dict(state["breaker"])
        for tid, ev_state in state.get("slo", {}).items():
            if tid in self._slo:
                self._slo[tid].load_state_dict(ev_state)
        by_key = {
            ev.spec.key: ev
            for evs in self._fleet_slo.values()
            for ev in evs
        }
        for key, ev_state in state.get("fleet_slo", {}).items():
            if key in by_key:
                by_key[key].load_state_dict(ev_state)
        for tid, alerts in state.get("alerts", {}).items():
            if tid in self.alerts:
                self.alerts[tid] = [HealthAlert.from_dict(a) for a in alerts]

    def _dump_flight_recorder(self, cell_id: str) -> str | None:
        """Post-mortem for a poison quarantine: recent watch events +
        the fleet rollup, bounded by ``fleet.flight_recorder``."""
        if (
            self.fleet is None
            or self.fleet.spec.flight_recorder <= 0
            or self.journal_root is None
            or self._watch is None
        ):
            return None
        window = max(0, self._watch.seq - self.fleet.spec.flight_recorder)
        doc = {
            "schema": "dyflow-flight-recorder/1",
            "reason": f"poison:{cell_id}",
            "events": self._watch.read(window),
            "rollup": self.fleet.rollup(),
        }
        path = os.path.join(
            self.journal_root, FLEET_DIR, f"flight-{cell_id}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        return path

    # -- the dispatch loop -----------------------------------------------------------
    def run_pending(self, stop_after: int | None = None) -> list[dict[str, Any]]:
        """Serve queued cells fair-share until drained (or *stop_after*).

        ``stop_after`` caps cells *executed* this call (replayed ledger
        hits do not count) — it models a supervisor crash mid-campaign,
        exactly like :meth:`CampaignRunner.run`.  Cells of quarantined
        tenants stay parked; the loop stops when nothing is
        dispatchable.  Returns this call's cell records.
        """
        ledgers = {tid: self._ledger(tid) for tid in self.registry.ids()}
        executed = 0
        batch: list[dict[str, Any]] = []
        try:
            self._fleet_wal.open()
            while True:
                tid = self.admission.next_tenant(self._now)
                if tid is None:
                    break
                if stop_after is not None and executed >= stop_after:
                    break
                cell_id, cell = self.admission.pop_cell(tid)
                state = self.registry.require(tid)
                record = self._serve(tid, cell_id, cell, state, ledgers[tid])
                batch.append(record)
                self.results.append(record)
                if not record["replayed"]:
                    self._resume_replay = False
                    executed += 1
                    self._now += 1.0
                    self._fleet_barrier()
        finally:
            for ledger in ledgers.values():
                ledger.close()
            self._fleet_wal.close()
            if self.fleet is not None:
                path = self.fleet.spec.openmetrics_path
                if path is not None:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(self.fleet.render_openmetrics())
        return batch

    def _serve(self, tid, cell_id, cell, state, ledger: RunLedger) -> dict[str, Any]:
        def record(status, result=None, replayed=False, attempts=0) -> dict[str, Any]:
            return {"tenant": tid, "cell_id": cell_id, "status": status,
                    "result": result, "replayed": replayed, "attempts": attempts}

        # Ledger replay: a completed (or poisoned) cell is never re-run.
        replayed = ledger.replay(cell_id)
        if replayed is not None:
            status, result = replayed
            if status == COMPLETED:
                state.completed += 1
            else:
                state.poisoned += 1
            return record(status, result, replayed=True)
        # Claim the tenant's WAL before leasing: a directory that cannot
        # be reopened must not strand a lease.
        ledger.open()
        lease, deny = self.arbiter.try_lease(state.spec, cell_id, cell.nprocs)
        if lease is None:
            # One-cell-at-a-time service: a denial here is structural
            # (request beyond quota or machine), not transient.
            state.rejected += 1
            fresh = self._emit("lease-deny", f"lease-deny:{cell_id}",
                               tenant=tid, cell_id=cell_id, reason=deny)
            if fresh and self.fleet is not None:
                self.fleet.record_rejection(tid)
            return record(f"rejected-{deny}")
        self._emit("lease-grant", f"lease-grant:{cell_id}", tenant=tid,
                   cell_id=cell_id, nodes=lease.nodes, cores=lease.cores)
        try:
            ledger.start(cell_id, cell.params)
            self._emit("cell-start", f"cell-start:{cell_id}",
                       tenant=tid, cell_id=cell_id)
            [outcome] = self.executor.run(
                [(cell_id, cell)], lambda c, lease=lease: self.run_cell(c, lease)
            )
        finally:
            self.arbiter.release(lease)
        trips_before = self.breaker.trips(tid)
        for failure in outcome.failures:
            self.breaker.record_failure(tid, self._now)
            state.failed += 1
            self._emit("cell-retry", f"cell-retry:{cell_id}:{failure.attempt}",
                       tenant=tid, cell_id=cell_id, attempt=failure.attempt,
                       fail_kind=failure.kind)
        for trip in range(trips_before, self.breaker.trips(tid)):
            fresh = self._emit("breaker-trip", f"breaker-trip:{tid}:{trip}",
                               tenant=tid, trip=trip)
            if fresh and self.fleet is not None:
                self.fleet.record_trip(tid)
        self._evaluate_health(tid)
        if outcome.status == COMPLETED:
            state.completed += 1
            if self.fleet is not None:
                self.fleet.record_cell(
                    tid, float(outcome.result.get("makespan", 0.0))
                    if isinstance(outcome.result, dict) else 0.0,
                    status="completed", failures=len(outcome.failures),
                )
            self._evaluate_fleet_slos(tid)
            self._emit("cell-complete", f"cell-complete:{cell_id}",
                       tenant=tid, cell_id=cell_id, attempts=outcome.attempts)
            ledger.complete(cell_id, outcome.result)
            return record(COMPLETED, outcome.result, attempts=outcome.attempts)
        state.poisoned += 1
        if self.fleet is not None:
            self.fleet.record_cell(tid, None, status="poisoned",
                                   failures=len(outcome.failures))
        self._evaluate_fleet_slos(tid)
        self._emit("cell-poison", f"cell-poison:{cell_id}",
                   tenant=tid, cell_id=cell_id, attempts=outcome.attempts)
        ledger.poison(cell_id, [[f.attempt, f.kind, f.detail] for f in outcome.failures])
        self._dump_flight_recorder(cell_id)
        return record(POISONED, attempts=outcome.attempts)

    # -- health --------------------------------------------------------------------
    def _evaluate_health(self, tenant_id: str) -> None:
        alert = self._slo[tenant_id].evaluate(
            self._now, float(self.breaker.blamed(tenant_id))
        )
        if alert is not None:
            ordinal = len(self.alerts[tenant_id])
            self.alerts[tenant_id].append(alert)
            self._emit("alert", f"alert:{tenant_id}:{ordinal}",
                       tenant=tenant_id, alert=alert.to_dict())
            if self.fleet is not None:
                self.fleet.ingest_alert(tenant_id, alert)

    def _evaluate_fleet_slos(self, tenant_id: str) -> None:
        """Run the spec's tenant-scoped objectives after an executed cell."""
        for evaluator in self._fleet_slo.get(tenant_id, ()):
            slo = evaluator.spec
            assert self.fleet is not None
            value = instrument_stat(self.fleet.registry(tenant_id).lookup(slo.metric), slo.stat)
            alert = evaluator.evaluate(self._now, value)
            if alert is None:
                continue
            ordinal = sum(
                1 for a in self.fleet.alerts(tenant_id) if a.source == alert.source
            )
            self._emit(
                "slo-transition", f"slo:{slo.key}:{alert.kind}:{ordinal}",
                tenant=tenant_id, alert=alert.to_dict(),
            )
            self.fleet.ingest_alert(tenant_id, alert)

    # -- reporting -----------------------------------------------------------------
    def tenant_summary(self) -> dict[str, dict[str, Any]]:
        """Per-tenant counters for reports and benchmarks.

        Deterministically ordered: tenant ids sorted, field order fixed —
        two equivalent campaigns produce byte-identical JSON dumps.
        """
        out: dict[str, dict[str, Any]] = {}
        for tid in sorted(self.registry.ids()):
            state = self.registry.require(tid)
            out[tid] = {
                "submitted": state.submitted,
                "rejected": state.rejected,
                "completed": state.completed,
                "failed": state.failed,
                "poisoned": state.poisoned,
                "queued": len(state.queue),
                "quarantined": self.breaker.is_quarantined(tid, self._now),
                "quarantine_trips": self.breaker.trips(tid),
                "alerts": [a.to_dict() for a in self.alerts[tid]],
            }
        return out
