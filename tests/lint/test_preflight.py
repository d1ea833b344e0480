"""Pre-flight verification wired into both runtimes.

The acceptance bar: a defect spec is rejected under ``preflight="strict"``
before tick zero (typed :class:`VerificationError`, nothing started),
``warn`` surfaces the same findings without stopping the run, and a
clean spec runs bit-identically — same scenario fingerprint — with
preflight on or off.
"""

from __future__ import annotations

import warnings

import pytest

from repro.apps import AmdahlModel, ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.core import ActionType, GroupBySpec, PolicyApplication, PolicySpec, SensorSpec
from repro.errors import LintError, VerificationError
from repro.experiments import run_gray_scott_experiment
from repro.journal import scenario_fingerprint
from repro.lint import PreflightWarning, spec_from_runtime
from repro.runtime import DyflowOrchestrator, LiveTaskSpec, RuntimeOptions, ThreadedDyflow
from repro.sim import RngRegistry, SimEngine
from repro.wms import CouplingType, DependencySpec, Savanna, TaskSpec, WorkflowSpec


def make_launcher(num_nodes=4):
    eng = SimEngine()
    m = summit(num_nodes)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e9)
    tasks = [
        TaskSpec("Sim", lambda: IterativeApp(ConstantModel(8.0), total_steps=40), nprocs=40),
        TaskSpec("Ana", lambda: IterativeApp(AmdahlModel(serial=4, parallel=240)), nprocs=12),
    ]
    wf = WorkflowSpec("W", tasks, [DependencySpec("Ana", "Sim", CouplingType.TIGHT)])
    return eng, Savanna(eng, wf, alloc, rng=RngRegistry(1))


def wire_clean(orch):
    orch.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task("Ana", "PACE", var="looptime")
    orch.add_policy(PolicySpec("INC", "PACE", "GT", 12.0, ActionType.ADDCPU,
                               history_window=4, history_op="AVG", frequency=5.0))
    orch.apply_policy(PolicyApplication("INC", "W", ("Ana",), assess_task="Ana",
                                        action_params={"adjust-by": 12}))


def wire_defective(orch):
    """Policy INC assesses Sim via PACE, but only Ana is monitored: the
    policy can never fire (DY112)."""
    orch.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task("Ana", "PACE", var="looptime")
    orch.add_policy(PolicySpec("INC", "PACE", "GT", 12.0, ActionType.ADDCPU))
    orch.apply_policy(PolicyApplication("INC", "W", ("Sim",), assess_task="Sim",
                                        action_params={"adjust-by": 12}))


class TestOrchestratorPreflight:
    def test_strict_rejects_defect_before_tick_zero(self):
        eng, sav = make_launcher()
        orch = DyflowOrchestrator(sav, options=RuntimeOptions(preflight="strict"))
        wire_defective(orch)
        with pytest.raises(VerificationError) as exc:
            orch.start()
        assert any(d.code == "DY112" for d in exc.value.diagnostics)
        # nothing started: the service loop never registered an event
        assert not orch._running
        assert eng.now == 0.0

    def test_strict_accepts_clean_spec(self):
        eng, sav = make_launcher()
        orch = DyflowOrchestrator(sav, warmup=40.0, settle=40.0,
                                  options=RuntimeOptions(preflight="strict"))
        wire_clean(orch)
        sav.launch_workflow()
        orch.start(stop_when=sav.all_idle)
        eng.run(until=5000)
        assert sav.all_idle()
        assert sav.record("Ana").current.nprocs == 36

    def test_warn_mode_reports_and_continues(self):
        eng, sav = make_launcher()
        orch = DyflowOrchestrator(sav, options=RuntimeOptions(preflight="warn"))
        wire_defective(orch)
        sav.launch_workflow()
        with pytest.warns(PreflightWarning, match="DY112"):
            orch.start(stop_when=sav.all_idle)
        assert orch._running

    def test_off_mode_runs_defect_silently(self):
        eng, sav = make_launcher()
        orch = DyflowOrchestrator(sav)  # preflight defaults to "off"
        wire_defective(orch)
        sav.launch_workflow()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orch.start(stop_when=sav.all_idle)
        assert orch._running

    def test_unknown_mode_rejected_at_construction(self):
        _eng, sav = make_launcher()
        with pytest.raises(LintError):
            DyflowOrchestrator(sav, options=RuntimeOptions(preflight="paranoid"))

    def test_spec_reconstruction(self):
        _eng, sav = make_launcher()
        orch = DyflowOrchestrator(sav)
        wire_clean(orch)
        spec = spec_from_runtime(orch)
        assert set(spec.sensors) == {"PACE"}
        assert set(spec.policies) == {"INC"}
        assert [mt.task for mt in spec.monitor_tasks] == ["Ana"]
        deps = spec.rules["W"].dependencies
        assert [(d.task, d.parent) for d in deps] == [("Ana", "Sim")]


class TestThreadedPreflight:
    def tasks(self):
        return [LiveTaskSpec("T", lambda s, w: None, total_steps=2)]

    def make_runner(self, preflight="off"):
        return ThreadedDyflow("W", self.tasks(), poll_interval=0.05, warmup=0.2,
                              settle=0.2, options=RuntimeOptions(preflight=preflight))

    def test_strict_rejects_defect_before_start(self):
        run = self.make_runner(preflight="strict")
        run.add_sensor(SensorSpec("S", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        run.monitor_task("T", "S")
        run.add_policy(PolicySpec("P", "S", "GT", 1.0, ActionType.RMCPU))
        run.apply_policy(PolicyApplication("P", "W", ("T",), assess_task="Ghost"))
        with pytest.raises(VerificationError) as exc:
            run.start()
        assert any(d.code == "DY112" for d in exc.value.diagnostics)
        assert run._threads == []  # no stage thread ever started

    def test_strict_accepts_clean_run(self):
        run = self.make_runner(preflight="strict")
        run.add_sensor(SensorSpec("S", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        run.monitor_task("T", "S")
        run.start()
        try:
            assert run.wait_until_done(timeout=30.0)
        finally:
            run.stop()

    def test_unknown_mode_rejected(self):
        with pytest.raises(LintError):
            self.make_runner(preflight="always")

    def test_spec_reconstruction(self):
        run = self.make_runner()
        run.add_sensor(SensorSpec("S", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        run.monitor_task("T", "S")
        spec = spec_from_runtime(run)
        assert set(spec.sensors) == {"S"}
        assert [mt.task for mt in spec.monitor_tasks] == ["T"]


class TestBehavioralEquivalence:
    def test_same_seed_fingerprint_unchanged_by_preflight(self):
        ref = run_gray_scott_experiment(seed=0)
        res = run_gray_scott_experiment(seed=0, preflight="strict")
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)
        assert res.makespan == ref.makespan
