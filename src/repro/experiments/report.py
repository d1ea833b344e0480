"""Programmatic paper-vs-measured report over all §4 experiments.

Every claim of the paper's evaluation that this repo checks is one row
here: Tables 1–3, Figs. 1, 6, 8, 9 and 11, the §4.6 cost analysis with
the per-stage latency histograms, the ablations of the design choices
(DESIGN.md §4), the two §6 extensions and a resilience sweep.
``build_report()`` runs every experiment on both machine models — each
distinct scenario call once, however many rows read it — and returns
the rows; ``format_report()`` renders them as the table
EXPERIMENTS.md embeds verbatim (``tests/experiments/test_report.py``
holds the two equal).  Printed by ``examples/reproduce_all.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps import ConstantModel, IterativeApp, RampModel
from repro.apps.gray_scott import ANALYSIS_TASKS as GS_ANALYSES
from repro.apps.gray_scott import GrayScottConfig
from repro.apps.lammps import ANALYSIS_TASKS as MD_ANALYSES
from repro.apps.lammps import LammpsConfig
from repro.cluster import Allocation, summit
from repro.core import (
    ActionType,
    GroupBySpec,
    PolicyApplication,
    PolicySpec,
    SensorSpec,
)
from repro.experiments import grayscott_scenario, lammps_scenario, xgc_scenario
from repro.experiments.cost_analysis import run_cost_analysis
from repro.experiments.grayscott_scenario import THRESHOLDS, run_gray_scott_experiment
from repro.experiments.lammps_scenario import run_lammps_experiment
from repro.experiments.xgc_scenario import run_xgc_experiment
from repro.resilience import (
    ChaosEngine,
    CheckpointSpec,
    FaultModelSpec,
    QuarantineSpec,
    ResilienceSpec,
    RetryPolicy,
    WatchdogSpec,
)
from repro.runtime import DyflowOrchestrator
from repro.sim import RngRegistry, SimEngine
from repro.telemetry import TelemetrySpec
from repro.wms import CouplingType, DependencySpec, Savanna, TaskSpec, TaskState, WorkflowSpec


@dataclass
class ReportRow:
    """One paper-claim vs measured-value comparison."""

    experiment: str
    machine: str
    quantity: str
    paper: str
    measured: str
    ok: bool


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, experiment: str, machine: str, quantity: str, paper: str,
            measured: str, ok: bool) -> None:
        self.rows.append(ReportRow(experiment, machine, quantity, paper, measured, ok))

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[ReportRow]:
        return [r for r in self.rows if not r.ok]


#: ``run(scenario, machine, **kwargs)``: the scenario's result, computed
#: once per distinct call within one :func:`build_report`.
Run = Callable[..., Any]


def _below(value: float, bound: float) -> tuple[str, bool]:
    """A measured time and its bound, rendered and checked from one number."""
    return f"{value:.2f}s < {bound:g}s", value < bound


def _table1(report: Report, machine: str, run: Run) -> None:
    if machine != "summit":  # the workflow is the same on both machines
        return
    row = functools.partial(report.add, "Table 1 (§4.3)", machine)
    workflow = xgc_scenario.build_workflow(use_dyflow=True)
    xgc1, xgca = workflow.task("XGC1"), workflow.task("XGCA")
    row("XGC1 / XGCa processes", "192 each", f"{xgc1.nprocs} / {xgca.nprocs}",
        xgc1.nprocs == xgca.nprocs == 192)
    row("processes per node", "14", str(xgc1.procs_per_node),
        xgc1.procs_per_node == xgc_scenario.PROCS_PER_NODE == 14)
    steps = xgc1.make_app().run_steps
    row("timesteps per run", "100", str(steps), steps == 100)


def _fig6(report: Report, machine: str, run: Run) -> None:
    row = functools.partial(report.add, "Fig. 6 (§4.3)", machine)
    res = run(run_xgc_experiment, machine, use_dyflow=True)
    base = run(run_xgc_experiment, machine, use_dyflow=False)
    ratio = base.makespan / res.makespan
    progress = res.meta["final_progress"]
    xgca_starts = [
        p.response_time for p in res.plans
        if len(p.ops) == 1 and p.ops[0].task == "XGCA" and p.ops[0].op == "start_task"
    ]
    row("XGCa waiting-queue starts", "3 starts", f"{len(xgca_starts)} starts",
        len(xgca_starts) == 3)
    row("slowest XGCa start response", "0.1–0.2 s" if machine == "summit" else "0.2–0.8 s",
        *_below(max(xgca_starts, default=0.0), 1.0))
    row("final global step", "502", str(progress), 500 < progress < 506)
    row("XGC1-only overhead", "≈25%", f"{100 * (ratio - 1):.0f}%", 1.15 < ratio < 1.45)
    if machine != "summit":
        d2 = sorted(r for _p, r in res.response_times())
        s = sorted(
            r for _p, r in run(run_xgc_experiment, "summit", use_dyflow=True).response_times()
        )
        row("fastest / slowest response vs Summit", "both slower",
            f"{d2[0]:.2f}s / {d2[-1]:.1f}s vs {s[0]:.2f}s / {s[-1]:.1f}s",
            d2[0] > s[0] and d2[-1] > s[-1])


def _table2(report: Report, machine: str, run: Run) -> None:
    row = functools.partial(report.add, "Table 2 (§4.4)", machine)
    config = GrayScottConfig.summit() if machine == "summit" else GrayScottConfig.deepthought2()
    workflow = grayscott_scenario.build_workflow(config)
    gs = workflow.task("GrayScott")
    procs, per_node = (340, 34) if machine == "summit" else (320, 16)
    row("Gray-Scott processes", f"{procs} ({per_node}/node)",
        f"{gs.nprocs} ({gs.procs_per_node}/node)",
        (gs.nprocs, gs.procs_per_node) == (procs, per_node))
    analysis_procs = sorted({workflow.task(t).nprocs for t in GS_ANALYSES})
    row("analysis processes", "20 each", " / ".join(map(str, analysis_procs)),
        analysis_procs == [20])
    if machine == "summit":
        row("total steps", "50", str(config.total_steps), config.total_steps == 50)


def _adjustments(result) -> list:
    return [p for p in result.plans if any("INC_ON_PACE" in a for a in p.accepted)]


def _mean_step_interval(result, skip: int = 0, after: float = float("-inf")) -> float:
    """Mean time between Gray-Scott output steps landing on disk."""
    fs = result.launcher.hub.filesystem
    pattern = f"out/{grayscott_scenario.WORKFLOW_ID}/GrayScott.out.*"
    marks = [m for m in sorted(e.mtime for e in fs.scan(pattern))[skip:] if m > after]
    return (marks[-1] - marks[0]) / max(1, len(marks) - 1)


def _fig1(report: Report, machine: str, run: Run) -> None:
    if machine != "summit":
        return
    res = run(run_gray_scott_experiment, machine, use_dyflow=True)
    static = run(run_gray_scott_experiment, machine, use_dyflow=False, enforce_walltime=False)
    last_window_end = max(
        p.execution_end for p in _adjustments(res) if p.execution_end is not None
    )
    after_dt = _mean_step_interval(res, after=last_window_end)
    static_dt = _mean_step_interval(static, skip=5)  # skip the buffer-fill burst
    factor = 1.2
    report.add("Fig. 1 (§4.4)", machine, "s/step: static vs rebalanced tail",
               "pace rises into the band", f"{static_dt:.1f} > {factor} × {after_dt:.1f}",
               static_dt > factor * after_dt)


def _fig8(report: Report, machine: str, run: Run) -> None:
    row = functools.partial(report.add, "Fig. 8 (§4.4)", machine)
    res = run(run_gray_scott_experiment, machine, use_dyflow=True)
    static = run(run_gray_scott_experiment, machine, use_dyflow=False, enforce_walltime=False)
    plans = _adjustments(res)
    victims = [v for p in plans for v in p.victims]
    limit = res.meta["time_limit"]
    if machine == "summit":
        sizes = [
            [o for o in p.ops if o.task == "Isosurface" and o.op == "start_task"][0]
            .resources.total_cores
            for p in plans
        ]
        row("adjustments", "2 (PDF_Calc, then FFT victims)",
            f"{len(plans)} ({', '.join(victims)})",
            len(plans) == 2 and plans[0].victims == ["PDF_Calc"]
            and plans[1].victims == ["FFT"])
        row("Isosurface procs after each", "40, then 60", ", ".join(map(str, sizes)),
            sizes == [40, 60])
    else:
        row("adjustments", "1 (PDF_Calc + FFT victims)",
            f"{len(plans)} ({', '.join(sorted(victims))})",
            len(plans) == 1 and set(plans[0].victims) == {"PDF_Calc", "FFT"})
        response = plans[0].response_time if plans else 0.0
        lo, hi = 40, 150
        row("adjustment response", "87 s", f"{response:.0f}s in ({lo}, {hi})",
            lo < response < hi)
    row("finishes inside limit", "yes", f"{res.makespan:.0f}s < {limit:.0f}s",
        res.makespan < limit)
    overtime = static.makespan / limit - 1
    row("static overtime", "10–12%", f"{100 * overtime:.0f}%", 0.05 < overtime < 0.25)
    if machine == "summit":
        killed = run(run_gray_scott_experiment, machine, use_dyflow=False, enforce_walltime=True)
        last = {r["task"]: r for r in killed.summary_rows()}["GrayScott"]["last_step"]
        row("static run, walltime enforced", "killed before step 50",
            f"timed out at step {last}", killed.meta["timed_out"] and last < 50)


def _fig9(report: Report, machine: str, run: Run) -> None:
    if machine != "summit":
        return
    row = functools.partial(report.add, "Fig. 9 (§4.4)", machine)
    res = run(run_gray_scott_experiment, machine, use_dyflow=True)
    plans = _adjustments(res)
    inc, dec = THRESHOLDS[machine]
    iso = res.pace_series("Isosurface")
    early = [v for t, v in iso if t < plans[0].created]
    tail = [v for t, v in iso if t > plans[-1].execution_end + 120][2:]
    row("Isosurface pace before adjusting", f"> {inc:.0f} s",
        f"max {max(early, default=0.0):.1f}s", bool(early) and max(early) > inc)
    row("Isosurface pace, settled tail", f"in [{dec:.0f}, {inc:.0f}] s",
        f"{min(tail, default=0.0):.1f}–{max(tail, default=0.0):.1f}s",
        bool(tail) and all(dec - 2 < v < inc for v in tail))


def _table3(report: Report, machine: str, run: Run) -> None:
    row = functools.partial(report.add, "Table 3 (§4.5)", machine)
    config = LammpsConfig.summit() if machine == "summit" else LammpsConfig.deepthought2()
    workflow = lammps_scenario.build_workflow(config)
    sim = workflow.task("LAMMPS")
    if machine == "summit":
        row("LAMMPS processes", "1500 (30/node)", f"{sim.nprocs} ({sim.procs_per_node}/node)",
            sim.nprocs == 1500 and sim.procs_per_node == 30)
    else:  # 14/node in the paper cannot pack a 20-core node: see EXPERIMENTS.md
        row("LAMMPS processes", "100", str(sim.nprocs), sim.nprocs == 100)
    analyses, atoms, steps = (
        (200, 65_536_000, 100) if machine == "summit" else (20, 8_192_000, 50)
    )
    analysis_procs = sorted({workflow.task(t).nprocs for t in MD_ANALYSES})
    row("analysis processes", f"{analyses} each", " / ".join(map(str, analysis_procs)),
        analysis_procs == [analyses])
    row("total atoms", f"{atoms:,}", f"{config.total_atoms:,}", config.total_atoms == atoms)
    row("analysis steps", str(steps), str(config.analysis_steps),
        config.analysis_steps == steps)


def _restart_plan(result):
    return [p for p in result.plans if p.ops][0]


def _fig11(report: Report, machine: str, run: Run) -> None:
    row = functools.partial(report.add, "Fig. 11 (§4.5)", machine)
    res = run(run_lammps_experiment, machine, use_dyflow=True)
    plan = _restart_plan(res)
    row("simulation completes after failure", "yes", str(res.meta["sim_completed"]),
        bool(res.meta["sim_completed"]))
    if machine == "summit":
        row("restart checkpoint step", "412", str(res.meta["restart_step"]),
            res.meta["restart_step"] == 412)
    failed = res.meta["failed_node"]
    on_failed = [op.resources.cores_on(failed) for op in plan.ops if op.op == "start_task"]
    row("restart cores on the failed node", "0", str(sum(on_failed)), not any(on_failed))
    row("restart response", "≈0.2 s" if machine == "summit" else "≈0.4 s",
        *_below(plan.response_time, 2.0))
    if machine == "summit":
        lost = run(run_lammps_experiment, machine, use_dyflow=False)
        state = {r["task"]: r for r in lost.summary_rows()}["LAMMPS"]["state"]
        row("without DYFLOW", "never recovers",
            f"LAMMPS {state}, completed {lost.meta['sim_completed']}",
            state == "failed" and not lost.meta["sim_completed"])
    else:
        summit_plan = _restart_plan(run(run_lammps_experiment, "summit", use_dyflow=True))
        row("restart response vs Summit", "slower (0.4 vs 0.2 s)",
            f"{plan.response_time:.2f}s vs {summit_plan.response_time:.2f}s",
            plan.response_time > summit_plan.response_time)


def _cost(report: Report, machine: str, run: Run) -> None:
    row = functools.partial(report.add, "cost (§4.6)", machine)
    cost = run(run_cost_analysis, machine)
    row("file read lag", "≈0.2 s", f"{cost.file_lag:.2f}s", abs(cost.file_lag - 0.2) <= 0.1)
    row("stream read lag", "≈0.5 s, above file", f"{cost.stream_lag:.2f}s",
        abs(cost.stream_lag - 0.5) <= 0.15 and cost.stream_lag > cost.file_lag)
    mean_lag = (cost.file_lag + cost.stream_lag) / 2
    row("mean event→metric lag", "< 1 s", f"{mean_lag:.2f}s", mean_lag < 1.0)
    row("graceful-stop share of response", "≈97%", f"{cost.stop_share:.0%}",
        cost.stop_share > 0.9)
    row("plan formulation time", "low", *_below(cost.plan_time, 0.5))

    # The per-stage latency histograms the telemetry layer fills.
    metrics = run(run_gray_scott_experiment, machine, use_dyflow=True,
                  telemetry=TelemetrySpec()).tracer.metrics
    stages = {s: metrics.histogram(f"stage.{s}.latency")
              for s in ("monitor", "decision", "arbitration", "actuation")}
    row("stage latency: observations", "every stage observed",
        "/".join(str(h.count) for h in stages.values()),
        all(h.count > 0 and 0.0 <= h.p50 <= h.p95 for h in stages.values()))
    monitor, actuation = stages["monitor"], stages["actuation"]
    row("stage latency: monitor p95", "sub-second", *_below(monitor.p95, 1.0))
    row("stage latency: actuation vs monitor p50", "actuation dominates",
        f"{actuation.p50:.1f}s > {monitor.p50:.1f}s", actuation.p50 > monitor.p50)


def _predictive_run(policy: PolicySpec) -> tuple[float, float]:
    """Run a ramping workload under one policy.

    Returns (time of first adjustment, peak pace observed).
    """
    eng = SimEngine()
    m = summit(4)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e9)
    tasks = [
        TaskSpec("Sim", lambda: IterativeApp(ConstantModel(10.0), total_steps=80), nprocs=40),
        TaskSpec("Ana", lambda: IterativeApp(RampModel(serial=2.0, parallel=160.0, growth=0.05)),
                 nprocs=10),
    ]
    wf = WorkflowSpec("W", tasks, [DependencySpec("Ana", "Sim", CouplingType.TIGHT)])
    sav = Savanna(eng, wf, alloc, rng=RngRegistry(0))
    orch = DyflowOrchestrator(sav, warmup=30.0, settle=60.0, record_history=True)
    orch.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task("Ana", "PACE", var="looptime")
    orch.add_policy(policy)
    orch.apply_policy(
        PolicyApplication(policy.policy_id, "W", ("Ana",), assess_task="Ana",
                          action_params={"adjust-by": 30})
    )
    sav.launch_workflow()
    orch.start(stop_when=sav.all_idle)
    eng.run(until=20_000)
    first = orch.plans[0].created if orch.plans else float("inf")
    peak = max((u.value for u in orch.server.history if u.task == "Ana"), default=0.0)
    return first, peak


def _reconfig_run(action: ActionType, params: dict):
    eng = SimEngine()
    m = summit(4)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e9)
    wf = WorkflowSpec("W", [
        TaskSpec("Ana", lambda: IterativeApp(ConstantModel(20.0), total_steps=60), nprocs=10),
    ])
    sav = Savanna(eng, wf, alloc, rng=RngRegistry(0))
    orch = DyflowOrchestrator(sav, warmup=30.0, settle=30.0, record_history=True)
    orch.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task("Ana", "PACE", var="looptime")
    orch.add_policy(PolicySpec("FIX", "PACE", "GT", 12.0, action,
                               history_window=3, history_op="AVG", frequency=5.0))
    orch.apply_policy(PolicyApplication("FIX", "W", ("Ana",), assess_task="Ana",
                                        action_params=params))
    sav.launch_workflow()
    orch.start(stop_when=sav.all_idle)
    eng.run(until=20_000)
    plan = [p for p in orch.plans if p.execution_end is not None][0]
    return {
        "response": plan.response_time,
        "incarnations": sav.record("Ana").incarnations,
        "makespan": eng.now if not sav.record("Ana").is_active else float("inf"),
        "final_step": sav.record("Ana").current.notes.get("last_step"),
    }


#: The recovery stack every resilience-sweep run carries.
_SWEEP_RESILIENCE = ResilienceSpec(
    retry=RetryPolicy(max_retries=200, backoff_base=2.0, backoff_factor=2.0,
                      backoff_max=60.0, jitter=0.25),
    watchdog=WatchdogSpec(heartbeat_timeout=120.0, poll=10.0),
    quarantine=QuarantineSpec(failures=5, window=3600.0, cooldown=600.0),
    checkpoint=CheckpointSpec(every=20, resume=True),
)


def _sweep_run(task_crash_mtbf: float, ntasks: int = 4, nprocs: int = 8,
               steps: int = 300, horizon: float = 50_000.0) -> dict:
    """Four tasks under injected task crashes (MTBF 0 = none) and nodes
    failing eight times as rarely; returns faults, restarts, whether every
    task finished, and completed steps per core-hour."""
    eng = SimEngine()
    m = summit(6)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=horizon)
    tasks = [TaskSpec(f"T{i}", lambda: IterativeApp(ConstantModel(1.0), total_steps=steps),
                      nprocs=nprocs) for i in range(ntasks)]
    sav = Savanna(eng, WorkflowSpec("SWEEP", tasks, []), alloc,
                  rng=RngRegistry(42), resilience=_SWEEP_RESILIENCE)
    chaos = None
    if task_crash_mtbf > 0:
        chaos = ChaosEngine(sav, FaultModelSpec(task_crash_mtbf=task_crash_mtbf,
                                                node_mtbf=8 * task_crash_mtbf,
                                                node_repair_time=300.0))
        chaos.start()
    sav.launch_workflow()
    records = [sav.record(t.name) for t in tasks]

    def finished() -> list[bool]:
        return [r.current is not None and r.current.state == TaskState.COMPLETED
                for r in records]

    # Slices, so injection stops once the work is done.
    while eng.now < horizon and not all(finished()):
        eng.run(until=min(eng.now + 100.0, horizon))
    if chaos is not None:
        chaos.stop()
    done = finished()
    makespan = max(r.current.end_time for r in records) if all(done) else horizon
    return {
        "faults": len(chaos.history) if chaos is not None else 0,
        "restarts": sum(r.incarnations - 1 for r in records),
        "all_done": all(done),
        "steps_per_core_hour": sum(done) * steps / (ntasks * nprocs * makespan / 3600.0),
    }


def _ablations(report: Report, machine: str, run: Run) -> None:
    """The design choices of DESIGN.md §4, each switched off (Summit only)."""
    if machine != "summit":
        return
    row = functools.partial(report.add, "ablation", machine)

    def gs(**kwargs):
        return run(run_gray_scott_experiment, machine, use_dyflow=True, **kwargs)

    def pace_plans(result) -> int:
        return sum(1 for p in result.plans
                   if any("INC_ON_PACE" in a or "DEC_ON_PACE" in a for a in p.accepted))

    res = gs()
    graceful = [p.response_time for p in _adjustments(res)]
    immediate = [p.response_time for p in _adjustments(gs(graceful_stops=False))]
    factor = 0.3
    row("immediate stops: first response", "significantly reduced",
        f"{immediate[0]:.1f}s < {factor} × {graceful[0]:.1f}s" if graceful and immediate else "none",
        bool(graceful and immediate) and immediate[0] < factor * graceful[0])
    windowed = pace_plans(gs(seed=3))
    instant = pace_plans(gs(seed=3, history_window=1, settle=30.0))
    row("history window 1 vs 10: plans", "a window avoids one-step decisions",
        f"{instant} ≥ {windowed}", instant >= windowed)
    settled, unsettled = pace_plans(res), pace_plans(gs(settle=1.0))
    row("settle 1 s vs 120 s: plans", "no churn after a change",
        f"{unsettled} ≥ {settled}", unsettled >= settled)
    denied = gs(allow_victims=False)
    row("no victims: adjustments, makespan", "growth denied, run slower",
        f"{len(_adjustments(denied))}, {denied.makespan:.0f}s > {res.makespan:.0f}s",
        not _adjustments(denied) and denied.makespan > res.makespan)


def _extensions(report: Report, machine: str, run: Run) -> None:
    """The two §6 future-work extensions and a resilience sweep, on their
    own small workflows."""
    if machine != "summit":
        return
    row = functools.partial(report.add, "extension (§6)", machine)
    r_first, r_peak = _predictive_run(PolicySpec(
        "REACTIVE", "PACE", "GT", 30.0, ActionType.ADDCPU,
        history_window=5, history_op="AVG", frequency=5.0))
    p_first, p_peak = _predictive_run(PolicySpec(
        "PREDICT", "PACE", "GT", 0.4, ActionType.ADDCPU,
        history_window=5, history_op="TREND", frequency=5.0))
    row("TREND vs threshold: first plan", "predictive acts earlier",
        f"{p_first:.0f}s < {r_first:.0f}s", p_first < r_first)
    row("TREND vs threshold: peak pace", "predictive caps it lower",
        f"{p_peak:.1f}s ≤ {r_peak:.1f}s", p_peak <= r_peak + 1e-6)

    # ConstantModel does not scale with processes, so both arms apply the
    # same pace fix: RESTART with a step-scale parameter vs RECONFIG.
    restart = _reconfig_run(ActionType.RESTART, {"nprocs": 10, "step-scale": 0.5})
    reconfig = _reconfig_run(ActionType.RECONFIG, {"step-scale": 0.5})
    row("RECONFIG vs restart: incarnations", "in place, no relaunch",
        f"{reconfig['incarnations']} vs {restart['incarnations']}",
        reconfig["incarnations"] == 1 and restart["incarnations"] == 2)
    factor = 0.1
    row("RECONFIG vs restart: response", "finer-grained control",
        f"{reconfig['response']:.2f}s < {factor} × {restart['response']:.2f}s",
        reconfig["response"] < factor * restart["response"])
    row("RECONFIG final step", "60", str(reconfig["final_step"]), reconfig["final_step"] == 60)

    # Resilience sweep: useful throughput vs injected task-crash MTBF.
    sweep = [_sweep_run(mtbf) for mtbf in (0.0, 1000.0, 250.0, 60.0)]
    base, heavy = sweep[0], sweep[-1]
    row("resilience sweep: runs finished", "every MTBF, by checkpoint-restart",
        f"{sum(r['all_done'] for r in sweep)}/{len(sweep)}", all(r["all_done"] for r in sweep))
    row("resilience sweep: faults, restarts", "none uninjected; some at MTBF 60 s",
        f"{base['faults']}, {base['restarts']} → {heavy['faults']}, {heavy['restarts']}",
        base["faults"] == base["restarts"] == 0 and heavy["faults"] > 0 and heavy["restarts"] > 0)
    row("resilience sweep: steps/core-hour", "decays with the failure rate",
        f"{heavy['steps_per_core_hour']:.1f} < {base['steps_per_core_hour']:.1f}",
        heavy["steps_per_core_hour"] < base["steps_per_core_hour"])


#: One section per paper item, in the paper's order.
SECTIONS: list[Callable[[Report, str, Run], None]] = [
    _table1, _fig6, _table2, _fig1, _fig8, _fig9, _table3, _fig11, _cost,
    _ablations, _extensions,
]


def _call(scenario, machine: str, **kwargs):
    return scenario(machine, **kwargs)


def build_report(machines: tuple[str, ...] = ("summit", "deepthought2")) -> Report:
    """Run every experiment on every machine and collect comparisons."""
    report = Report()
    run = functools.cache(_call)
    for machine in machines:
        for section in SECTIONS:
            section(report, machine, run)
    return report


def format_report(report: Report) -> str:
    """Render the report as an aligned text table."""
    widths = {
        "experiment": max(len(r.experiment) for r in report.rows),
        "machine": max(len(r.machine) for r in report.rows),
        "quantity": max(len(r.quantity) for r in report.rows),
        "paper": max(len(r.paper) for r in report.rows),
        "measured": max(len(r.measured) for r in report.rows),
    }
    lines = [
        f"{'EXPERIMENT':<{widths['experiment']}}  {'MACHINE':<{widths['machine']}}  "
        f"{'QUANTITY':<{widths['quantity']}}  {'PAPER':<{widths['paper']}}  "
        f"{'MEASURED':<{widths['measured']}}  OK"
    ]
    for r in report.rows:
        lines.append(
            f"{r.experiment:<{widths['experiment']}}  {r.machine:<{widths['machine']}}  "
            f"{r.quantity:<{widths['quantity']}}  {r.paper:<{widths['paper']}}  "
            f"{r.measured:<{widths['measured']}}  {'✓' if r.ok else '✗'}"
        )
    status = "ALL SHAPES REPRODUCED" if report.all_ok else (
        f"{len(report.failures())} COMPARISONS OFF"
    )
    lines.append(f"-- {status} ({len(report.rows)} comparisons) --")
    return "\n".join(lines)
