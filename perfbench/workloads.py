"""The four workloads: input generators, one iteration each, and checks.

The seed reaches only the input generators here (step-time jitter, the
launchers' ``RngRegistry``, fabric and campaign seeds); the program under
``src/`` receives the generated inputs and never a workload name.  One
iteration goes from spec text to scenario fingerprint and returns
:class:`Outputs`; the runner times it, repeats it, and compares the
fingerprints.  Journals and watch files go under the *workdir* the runner
hands in (created and removed outside the timed region).

Why each workload exists, and which layers it isolates, is argued in
README.md; the one-line reasons are in ``metrics.WORKLOADS``.

Importing this module imports ``repro`` -- the runner does it as part of
the measured set-up, after putting the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

from repro.api import (
    BatchScheduler,
    CampaignService,
    ConstantModel,
    ExecutorSpec,
    IterativeApp,
    ObservabilitySpec,
    RngRegistry,
    Savanna,
    ScenarioResult,
    SimEngine,
    SloSpec,
    AnomalySpec,
    TaskSpec,
    TelemetrySpec,
    TenantCell,
    TenantSpec,
    TenantsSpec,
    WorkflowSpec,
    FleetSpec,
    JournalSpec,
    QuarantineSpec,
    configure_orchestrator,
    parse_dyflow_xml,
    read_watch_stream,
    run_gray_scott_experiment,
    run_lammps_experiment,
    run_xgc_experiment,
    scenario_fingerprint,
    summit,
)
from repro.experiments.runner import execute_scenario


@dataclass
class Outputs:
    """What one iteration produced: the things the checks compare."""

    fingerprints: dict[str, str]
    makespan: float  # simulated seconds, summed over the iteration's scenarios
    events: int | None  # engine events executed, where the engines are reachable
    checks: list[tuple[str, bool]] = field(default_factory=list)


class Workload:
    """Inputs generated from a seed, and one iteration over them."""

    name: str
    #: Per-layer counts that must be exactly zero: the layers this
    #: workload is meant to bypass.
    idle: tuple[str, ...] = ()
    #: True when the tiny (selftest) inputs are a subset of the full ones,
    #: so the pinned fingerprints still apply to them.
    tiny_keeps_pins = False
    #: Timed iterations of an end-to-end pass, however small ``--seconds`` is.
    min_iterations = 5

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny

    def iteration(self, workdir: str) -> Outputs:
        raise NotImplementedError

    def verify(self, workdir: str, outputs: Outputs) -> list[tuple[str, bool]]:
        """Untimed reference checks run once after the timed iterations."""
        return []


# --------------------------------------------------------------------------- #
# synth_monitor
# --------------------------------------------------------------------------- #
SYNTH_WORKFLOW = "SYNTH-WORKFLOW"
SYNTH_STEPS = 8
SYNTH_CLIENTS = 8
SYNTH_CORES_PER_NODE = 64


def _synth_task(i: int) -> str:
    return f"T{i:05d}"


def synth_xml(num_tasks: int) -> str:
    """One PACE sensor, one monitor-task and one never-firing policy per task."""
    monitors = "\n".join(
        f'      <monitor-task name="{_synth_task(i)}" workflowId="{SYNTH_WORKFLOW}">'
        f'<use-sensor sensor-id="PACE" info="looptime"/></monitor-task>'
        for i in range(num_tasks)
    )
    applies = "\n".join(
        f'      <apply-policy policyId="WATCH_PACE" assess-task="{_synth_task(i)}">'
        f"<act-on-tasks> {_synth_task(i)} </act-on-tasks></apply-policy>"
        for i in range(num_tasks)
    )
    return f"""<dyflow>
  <monitor>
    <sensors>
      <sensor id="PACE" type="TAUADIOS2">
        <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
      </sensor>
    </sensors>
    <monitor-tasks>
{monitors}
    </monitor-tasks>
  </monitor>
  <decision>
    <policies>
      <policy id="WATCH_PACE">
        <eval operation="GT" threshold="1e9"/>
        <sensors-to-use><use-sensor id="PACE" granularity="task"/></sensors-to-use>
        <action> ADDCPU </action>
        <history window="1" operation="AVG"/>
        <frequency seconds="1"/>
      </policy>
    </policies>
    <apply-on workflowId="{SYNTH_WORKFLOW}">
{applies}
    </apply-on>
  </decision>
</dyflow>
"""


class SynthMonitor(Workload):
    name = "synth_monitor"
    idle = ("journal.appends", "fabric.sent", "telemetry.spans", "campaign.cells",
            "core.arbitration.plans", "staging.scans")

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.num_tasks = 60 if tiny else 3000
        rng = random.Random(f"synth_monitor:{seed}")
        # Distinct per-task step times, so event times are distinct too:
        # 3000 copies of one instant would flatter the slot-indexed heap.
        self.step_times = [rng.uniform(4.5, 5.5) for _ in range(self.num_tasks)]
        self.xml = synth_xml(self.num_tasks)

    def iteration(self, workdir: str) -> Outputs:
        engine = SimEngine()
        nodes = max(1, math.ceil(self.num_tasks / SYNTH_CORES_PER_NODE))
        machine = summit(nodes, cores_per_node=SYNTH_CORES_PER_NODE)
        max_time = 5.5 * (SYNTH_STEPS + 4) + 60.0
        job = BatchScheduler(engine, machine).submit(nodes, walltime_limit=max_time)
        engine.run(until=0)
        tasks = [
            TaskSpec(
                _synth_task(i),
                lambda step=step: IterativeApp(
                    ConstantModel(step), total_steps=SYNTH_STEPS, publish_every=0,
                    output_every=0, noise_cv=0.0, rank_jitter=0.0, profile_ranks=1,
                ),
                nprocs=1,
            )
            for i, step in enumerate(self.step_times)
        ]
        launcher = Savanna(
            engine, WorkflowSpec(SYNTH_WORKFLOW, tasks, []), job.allocation,
            rng=RngRegistry(self.seed),
        )
        orch = configure_orchestrator(
            launcher, parse_dyflow_xml(self.xml), warmup=0.0, settle=0.0, poll_interval=1.0,
            num_clients=SYNTH_CLIENTS, record_history=False, preflight="strict",
        )
        makespan = execute_scenario(engine, launcher, orch, max_time=max_time)
        result = ScenarioResult(
            name="synthetic", machine="summit", use_dyflow=True, makespan=makespan,
            trace=launcher.trace, plans=orch.plans, metric_history=orch.server.history,
            launcher=launcher,
        )
        return Outputs(
            {"synth": scenario_fingerprint(result)}, makespan, engine.events_executed,
            [("every task ran all its steps", orch.decision.updates_seen
              == self.num_tasks * SYNTH_STEPS)],
        )


# --------------------------------------------------------------------------- #
# paper_plain
# --------------------------------------------------------------------------- #
PAPER_SCENARIOS = {
    "xgc": run_xgc_experiment,
    "gray_scott": run_gray_scott_experiment,
    "lammps": run_lammps_experiment,
}
MACHINES = ("summit", "deepthought2")


def machines_for(tiny: bool) -> tuple[str, ...]:
    return MACHINES[:1] if tiny else MACHINES


class PaperPlain(Workload):
    name = "paper_plain"
    tiny_keeps_pins = True
    idle = ("journal.appends", "fabric.sent", "telemetry.spans", "campaign.cells")

    def iteration(self, workdir: str) -> Outputs:
        out = Outputs({}, 0.0, 0)
        for scenario, run in PAPER_SCENARIOS.items():
            for machine in machines_for(self.tiny):
                result = run(machine, seed=self.seed)
                out.fingerprints[f"{scenario}/{machine}"] = scenario_fingerprint(result)
                out.makespan += result.makespan
                out.events += result.launcher.engine.events_executed
                out.checks.append((f"{scenario}/{machine} planned", bool(result.plans)))
        return out


# --------------------------------------------------------------------------- #
# gs_full_stack
# --------------------------------------------------------------------------- #
# The CI chaos fabric (tests/experiments/test_fingerprint_regression.py)
# with stale-after widened from 20 s to 60 s: Gray-Scott publishes PACE
# every ~40 s, so at 20 s the Decision stage sits in degraded mode for the
# whole run, every ADDCPU is gated and Arbitration/Actuation never work.
CHAOS_XML = """
  <resilience>
    <network latency="0.2" jitter="0.1" drop-prob="0.10" dup-prob="0.05"
             reorder-prob="0.05" ack-timeout="2.0" max-retransmits="5"
             ingress-capacity="64" drain-per-tick="32"
             stale-after="60.0" degrade-after="3" recover-after="3">
      <partition start="600.0" duration="30.0"/>
    </network>
  </resilience>"""
CRASH_TIMES = (300.0, 615.0)  # the second one lands inside the partition
SLOS = (SloSpec(metric="plan.response", stat="p95", op="LT", threshold=60.0),)
ANOMALIES = (AnomalySpec(metric="stage.monitor.latency", stat="p95", window=20, z=4.0),)


class GsFullStack(Workload):
    name = "gs_full_stack"
    tiny_keeps_pins = True
    idle = ("campaign.cells", "staging.scans")

    def _run(self, workdir: str, machine: str, crash: bool) -> ScenarioResult:
        base = os.path.join(workdir, f"{machine}-{'crash' if crash else 'ref'}")
        os.makedirs(base)
        return run_gray_scott_experiment(
            machine,
            seed=self.seed,
            telemetry=TelemetrySpec(),
            observability=ObservabilitySpec(
                eval_every=5.0, slos=SLOS, anomalies=ANOMALIES,
                openmetrics_path=os.path.join(base, "metrics.prom"),
                report_json_path=os.path.join(base, "report.json"),
            ),
            journal=JournalSpec(dir=os.path.join(base, "wal"), fsync="batch"),
            crash_times=CRASH_TIMES,
            ignore_crash_requests=not crash,
            xml_extra=CHAOS_XML,
            preflight="strict",
        )

    def iteration(self, workdir: str) -> Outputs:
        out = Outputs({}, 0.0, 0)
        for machine in machines_for(self.tiny):
            result = self._run(workdir, machine, crash=True)
            out.fingerprints[f"gray_scott/{machine}"] = scenario_fingerprint(result)
            out.makespan += result.makespan
            out.events += result.launcher.engine.events_executed
            out.checks.append(
                (f"{machine} crashed and resumed twice",
                 result.meta["crashes"] == list(CRASH_TIMES))
            )
            out.checks.append((f"{machine} planned", bool(result.plans)))
        return out

    def verify(self, workdir: str, outputs: Outputs) -> list[tuple[str, bool]]:
        """Crash/resume must be invisible: compare with the uncrashed reference."""
        return [
            (f"{machine} crash/resume equals uncrashed reference",
             scenario_fingerprint(self._run(workdir, machine, crash=False))
             == outputs.fingerprints[f"gray_scott/{machine}"])
            for machine in machines_for(self.tiny)
        ]


# --------------------------------------------------------------------------- #
# campaign_fleet
# --------------------------------------------------------------------------- #
HEALTHY_TENANTS = ("alpha", "bravo", "charlie", "delta", "echo")
POISON_TENANT = "poison"
CELL_TASKS = 8


def cell_workflow(steps: int, step_time: float) -> WorkflowSpec:
    return WorkflowSpec(
        f"cell-{steps}",
        [
            TaskSpec(f"T{k}", lambda: IterativeApp(ConstantModel(step_time), total_steps=steps),
                     nprocs=1)
            for k in range(CELL_TASKS)
        ],
    )


def broken_workflow(**_params):
    raise RuntimeError("the poison tenant's workflow factory always raises")


class CampaignFleet(Workload):
    name = "campaign_fleet"
    min_iterations = 4  # ~4 s each, the steadiest workload: keeps the run near 30 s
    idle = ("runtime.ticks", "fabric.sent", "telemetry.spans", "core.monitor.envelopes")

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.cells = 6 if tiny else 150
        rng = random.Random(f"campaign_fleet:{seed}")
        self.params = [
            {"steps": 20 + rng.randrange(5), "step_time": rng.uniform(0.9, 1.1)}
            for _ in range(self.cells)
        ]

    def _service(self, root: str) -> CampaignService:
        tenants = tuple(
            TenantSpec(t, quota_cores=32, max_queue=self.cells)
            for t in HEALTHY_TENANTS + (POISON_TENANT,)
        )
        service = CampaignService(
            TenantsSpec(
                nodes=8, cores_per_node=16, tenants=tenants,
                executor=ExecutorSpec(workers=0, max_attempts=2, backoff_base=0.0, jitter=0.0),
                breaker=QuarantineSpec(failures=4, window=100.0, cooldown=50.0),
            ),
            journal_root=root,
            rng_seed=self.seed,
            observability=ObservabilitySpec(fleet=FleetSpec()),
        )
        for params in self.params:
            for tenant in tenants:
                healthy = tenant.tenant_id != POISON_TENANT
                service.submit(TenantCell(
                    tenant.tenant_id, cell_workflow if healthy else broken_workflow,
                    params=params, nprocs=CELL_TASKS, seed=self.seed,
                ))
        return service

    def iteration(self, workdir: str) -> Outputs:
        root = os.path.join(workdir, "campaign")
        submitted = self.cells * (len(HEALTHY_TENANTS) + 1)
        # The supervisor dies at half; a fresh service resumes by WAL replay.
        first = self._service(root)
        before = first.run_pending(stop_after=submitted // 2)
        second = self._service(root)
        after = second.run_pending()
        replayed = [r for r in after if r["replayed"]]
        executed = before + [r for r in after if not r["replayed"]]
        done_before = {r["cell_id"]: r for r in before}
        summary = second.tenant_summary()
        poison = summary[POISON_TENANT]
        poison_served = [r for r in after if r["tenant"] == POISON_TENANT]
        digest = hashlib.sha256(json.dumps(
            [[r["tenant"], r["cell_id"], r["status"], r["result"]] for r in executed],
            sort_keys=True,
        ).encode("utf-8")).hexdigest()
        checks = [
            ("every healthy cell completed",
             all(summary[t]["completed"] == self.cells and summary[t]["failed"] == 0
                 for t in HEALTHY_TENANTS)),
            # A poison cell ends poisoned or stays parked behind the breaker.
            ("poison cells quarantined, none completed",
             first.tenant_summary()[POISON_TENANT]["quarantine_trips"] >= 1
             and all(r["status"] == "poisoned" for r in before + after
                     if r["tenant"] == POISON_TENANT)
             and len(poison_served) + poison["queued"] == self.cells),
            ("every healthy pre-crash cell replayed, replayed results verbatim",
             {r["cell_id"] for r in before if r["tenant"] != POISON_TENANT}
             <= {r["cell_id"] for r in replayed}
             and all(r["status"] == done_before[r["cell_id"]]["status"]
                     and r["result"] == done_before[r["cell_id"]]["result"]
                     for r in replayed)),
            ("durable watch stream reads back", read_watch_stream(second.watch_path)
             == second.watch()),
        ]
        makespan = sum(r["result"]["makespan"] for r in executed if r["status"] == "completed")
        return Outputs({"campaign": digest}, makespan, None, checks)


BY_NAME = {w.name: w for w in (SynthMonitor, PaperPlain, GsFullStack, CampaignFleet)}
