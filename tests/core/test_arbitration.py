"""Tests for the Arbitration stage (Algorithm 1)."""

import json
from collections import Counter

from repro.apps import ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.core import ActionType, ArbitrationRules, ArbitrationStage, SuggestedAction
from repro.core.actions import Outcome, Reason, actions_conflict, reason_counts
from repro.sim import SimEngine
from repro.wms import CouplingType, DependencySpec, Savanna, TaskSpec, WorkflowSpec


def suggestion(policy="P", action=ActionType.ADDCPU, target="B", assess="", params=None, t=0.0):
    return SuggestedAction(
        policy_id=policy, action=action, target=target, workflow_id="W",
        assess_task=assess, params=params or {}, trigger_time=t,
    )


def make_world(
    tasks=(("A", 10, True), ("B", 10, True), ("C", 10, True)),
    deps=(),
    num_nodes=1,
    cores_per_node=42,
    priorities=None,
    policy_priorities=None,
    warmup=0.0,
    settle=0.0,
    core_quota=None,
):
    """A running workflow on one node; tasks run long unless stopped."""
    eng = SimEngine()
    m = summit(num_nodes, cores_per_node=cores_per_node)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e9)
    specs = [
        TaskSpec(name, lambda: IterativeApp(ConstantModel(4.0), total_steps=10_000),
                 nprocs=n, autostart=auto)
        for name, n, auto in tasks
    ]
    wf = WorkflowSpec("W", specs, list(deps))
    sav = Savanna(eng, wf, alloc)
    rules = ArbitrationRules.from_workflow(
        wf, task_priorities=priorities or {}, policy_priorities=policy_priorities or {}
    )
    arb = ArbitrationStage(
        sav, rules, warmup=warmup, settle=settle, core_quota=core_quota
    )
    arb.begin(0.0)
    sav.launch_workflow()
    eng.run(until=5.0)  # everyone running
    return eng, sav, arb


def make_fanout(n=12):
    """One 64-process simulation feeding *n* tightly coupled 16-process analyses."""
    ana = [f"Ana{i}" for i in range(n)]
    eng, sav, arb = make_world(
        tasks=(("Sim", 64, True), *((a, 16, True) for a in ana)),
        deps=[DependencySpec(a, "Sim", CouplingType.TIGHT) for a in ana],
        num_nodes=8,
        priorities={"Sim": 0, **{a: i + 1 for i, a in enumerate(ana)}},
    )
    return eng, arb, ana


class TestGating:
    def test_warmup_discards(self):
        eng, sav, arb = make_world(warmup=120.0)
        assert arb.arbitrate([suggestion(t=-3.0)], now=eng.now) is None
        assert arb.outcomes == [
            Outcome("P", ActionType.ADDCPU, "B", Reason.GATED_WARMUP, eng.now, trigger=-3.0)
        ]
        assert sav.log.of_type(Outcome) == arb.outcomes
        assert reason_counts(sav.log) == {Reason.GATED_WARMUP: 1}

    def test_settle_after_execution(self):
        eng, sav, arb = make_world(settle=60.0)
        plan = arb.arbitrate([suggestion(params={"adjust-by": 2})], now=5.0)
        assert plan is not None
        arb.on_plan_executed(plan, now=10.0)
        assert arb.gated(50.0)
        assert not arb.gated(70.1)

    def test_in_flight_blocks_new_plans(self):
        eng, sav, arb = make_world()
        plan = arb.arbitrate([suggestion(params={"adjust-by": 2})], now=5.0)
        assert plan is not None
        assert arb.arbitrate([suggestion(params={"adjust-by": 2}, target="C")], now=6.0) is None
        arb.on_plan_executed(plan, now=7.0)
        assert arb.arbitrate([suggestion(params={"adjust-by": 2}, target="C")], now=8.0) is not None


class TestConflictResolution:
    def test_conflicting_pairs(self):
        assert actions_conflict(ActionType.STOP, ActionType.START)
        assert actions_conflict(ActionType.RMCPU, ActionType.ADDCPU)
        assert actions_conflict(ActionType.STOP, ActionType.RESTART)
        assert not actions_conflict(ActionType.ADDCPU, ActionType.ADDCPU)

    def test_policy_priority_wins(self):
        eng, sav, arb = make_world(policy_priorities={"HIGH": 0, "LOW": 1})
        plan = arb.arbitrate(
            [
                suggestion(policy="LOW", action=ActionType.ADDCPU, target="B", params={"adjust-by": 2}),
                suggestion(policy="HIGH", action=ActionType.STOP, target="B"),
            ],
            now=5.0,
        )
        ops = plan.ordered_ops()
        assert [o.op for o in ops] == ["stop_task"]
        assert any("LOW" in d for d in plan.discarded) or "HIGH:STOP:B" in plan.accepted

    def test_duplicate_suggestions_deduped(self):
        eng, sav, arb = make_world()
        s = suggestion(params={"adjust-by": 2})
        plan = arb.arbitrate([s, s, s], now=5.0)
        starts = [o for o in plan.ops if o.op == "start_task"]
        assert len(starts) == 1

    def test_resolution_never_grows_the_batch(self):
        # ADDCPU, RMCPU and STOP on every analysis: one action per target survives.
        _eng, arb, ana = make_fanout()
        batch = [suggestion(policy=f"P-{action.value}", action=action, target=a)
                 for a in ana for action in (ActionType.ADDCPU, ActionType.RMCPU, ActionType.STOP)]
        resolved = arb._resolve_conflicts(list(batch))
        assert len(resolved) == len(ana) < len(batch)
        assert sorted(s.target for s in resolved) == sorted(ana)


class TestNoopDropping:
    def test_start_of_running_task_dropped(self):
        eng, sav, arb = make_world()
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None

    def test_stop_of_inactive_task_dropped_and_purges_queue(self):
        eng, sav, arb = make_world(tasks=(("A", 40, True), ("B", 40, False)))
        # B cannot start (A holds 40 of 42): it parks in the waiting queue.
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None
        assert "B" in arb.waiting
        assert arb.arbitrate([suggestion(action=ActionType.STOP, target="B")], now=6.0) is None
        assert "B" not in arb.waiting

    def test_addcpu_on_dead_task_dropped(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True), ("B", 10, False)))
        assert arb.arbitrate([suggestion(action=ActionType.ADDCPU, target="B")], now=5.0) is None


class TestResourceProtocol:
    def test_addcpu_from_free_pool(self):
        eng, sav, arb = make_world()  # 30 of 42 used
        plan = arb.arbitrate([suggestion(params={"adjust-by": 8})], now=5.0)
        ops = plan.ordered_ops()
        assert [o.op for o in ops] == ["stop_task", "start_task"]
        assert ops[1].resources.total_cores == 18
        assert plan.victims == []

    def test_victim_selected_by_priority(self):
        eng, sav, arb = make_world(
            tasks=(("A", 14, True), ("B", 14, True), ("C", 14, True)),  # node full
            priorities={"A": 0, "B": 1, "C": 2},
        )
        plan = arb.arbitrate([suggestion(target="B", params={"adjust-by": 10})], now=5.0)
        assert plan.victims == ["C"]
        assert "C" in arb.waiting
        ops = plan.ordered_ops()
        assert ops[0].op == "stop_task" and ops[0].task == "C"
        start = [o for o in ops if o.op == "start_task"][0]
        assert start.task == "B" and start.resources.total_cores == 24

    def test_no_victim_with_higher_priority_only(self):
        """A task never victimizes equal or higher priority tasks."""
        eng, sav, arb = make_world(
            tasks=(("A", 21, True), ("B", 21, True)),
            priorities={"A": 0, "B": 0},
        )
        plan = arb.arbitrate([suggestion(target="B", params={"adjust-by": 10})], now=5.0)
        assert plan is None  # growth discarded, no victims, nothing to do

    def test_rmcpu_shrinks(self):
        eng, sav, arb = make_world()
        plan = arb.arbitrate(
            [suggestion(action=ActionType.RMCPU, target="B", params={"adjust-by": 4})], now=5.0
        )
        start = [o for o in plan.ordered_ops() if o.op == "start_task"][0]
        assert start.resources.total_cores == 6

    def test_rmcpu_floors_at_one(self):
        eng, sav, arb = make_world()
        plan = arb.arbitrate(
            [suggestion(action=ActionType.RMCPU, target="B", params={"adjust-by": 999})], now=5.0
        )
        start = [o for o in plan.ordered_ops() if o.op == "start_task"][0]
        assert start.resources.total_cores == 1

    def test_restart_of_failed_task_uses_spec_size(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True),))
        # Kill A out-of-band, then RESTART it.
        inst = sav.record("A").current
        inst.proc.interrupt(__import__("repro.apps.base", fromlist=["Signal"]).Signal.kill(137))
        eng.run(until=6.0)
        assert not sav.record("A").is_active
        plan = arb.arbitrate([suggestion(action=ActionType.RESTART, target="A")], now=7.0)
        start = [o for o in plan.ordered_ops() if o.op == "start_task"][0]
        assert start.resources.total_cores == 10

    def test_growing_every_analysis_yields_a_plan_with_ops(self):
        eng, arb, ana = make_fanout()
        plan = arb.arbitrate(
            [suggestion(policy="INC", target=a, params={"adjust-by": 8}) for a in ana], now=eng.now
        )
        assert plan is not None and plan.ops

    def test_plan_never_exceeds_allocation(self):
        eng, sav, arb = make_world(
            tasks=(("A", 14, True), ("B", 14, True), ("C", 14, True)),
            priorities={"A": 0, "B": 1, "C": 2},
        )
        plan = arb.arbitrate(
            [
                suggestion(target="A", params={"adjust-by": 6}),
                suggestion(target="B", params={"adjust-by": 6}),
                suggestion(target="C", params={"adjust-by": 6}),
            ],
            now=5.0,
        )
        total = sum(rs.total_cores for rs in plan.reassignment.values())
        assert total <= sav.allocation.total_cores

    def test_ordering_releases_before_acquires(self):
        eng, sav, arb = make_world(
            tasks=(("A", 14, True), ("B", 14, True), ("C", 14, True)),
            priorities={"A": 0, "B": 1, "C": 2},
        )
        plan = arb.arbitrate([suggestion(target="B", params={"adjust-by": 10})], now=5.0)
        kinds = [o.op for o in plan.ordered_ops()]
        assert kinds == sorted(kinds, key=lambda k: 0 if k == "stop_task" else 1)


class TestDependentActions:
    def make_chain(self):
        return make_world(
            tasks=(("Sim", 10, True), ("Iso", 10, True), ("Render", 10, True)),
            deps=(
                DependencySpec("Iso", "Sim", CouplingType.TIGHT),
                DependencySpec("Render", "Iso", CouplingType.TIGHT),
            ),
            priorities={"Sim": 0, "Iso": 1, "Render": 2},
        )

    def test_addcpu_restarts_tight_dependents(self):
        eng, sav, arb = self.make_chain()
        plan = arb.arbitrate([suggestion(target="Iso", params={"adjust-by": 4})], now=5.0)
        by_task = {(o.task, o.op) for o in plan.ops}
        assert ("Render", "stop_task") in by_task
        assert ("Render", "start_task") in by_task
        render_start = [o for o in plan.ops if o.task == "Render" and o.op == "start_task"][0]
        assert render_start.reason == "dependency"
        assert render_start.resources.total_cores == 10  # same size

    def test_dependency_restart_supersedes_dependent_resize(self):
        eng, sav, arb = self.make_chain()
        plan = arb.arbitrate(
            [
                suggestion(target="Iso", params={"adjust-by": 4}),
                suggestion(target="Render", params={"adjust-by": 4}, policy="P2"),
            ],
            now=5.0,
        )
        render_start = [o for o in plan.ops if o.task == "Render" and o.op == "start_task"][0]
        assert render_start.resources.total_cores == 10  # restarted, not grown
        assert any("dependency restart" in d for d in plan.discarded)

    def test_stop_propagates_to_transitive_dependents(self):
        eng, sav, arb = self.make_chain()
        plan = arb.arbitrate([suggestion(action=ActionType.STOP, target="Sim")], now=5.0)
        restarted = {o.task for o in plan.ops if o.op == "start_task"}
        # Iso and Render are restarted to re-establish connections.
        assert restarted == {"Iso", "Render"}

    def test_untouched_parent_leaves_dependents_alone(self):
        eng, sav, arb = self.make_chain()
        plan = arb.arbitrate([suggestion(action=ActionType.ADDCPU, target="Render",
                                         params={"adjust-by": 2})], now=5.0)
        assert {o.task for o in plan.ops} == {"Render"}


class TestWaitingQueue:
    def test_unsatisfiable_start_parks(self):
        eng, sav, arb = make_world(tasks=(("A", 40, True), ("B", 40, False)),
                                   priorities={"A": 0, "B": 0})
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None
        assert "B" in arb.waiting

    def test_waiting_task_starts_when_resources_free(self):
        eng, sav, arb = make_world(tasks=(("A", 40, True), ("B", 40, False)),
                                   priorities={"A": 0, "B": 0})
        arb.arbitrate([suggestion(action=ActionType.START, target="B",
                                  params={"restart-script": "r.sh"})], now=5.0)
        # A exits; resources free; next round drains the queue.
        def stop_a():
            yield from sav.stop_task("A", graceful=False)
        eng.process(stop_a())
        eng.run(until=10.0)
        plan = arb.arbitrate([], now=10.0)
        assert plan is not None
        start = plan.ordered_ops()[0]
        assert start.task == "B" and start.op == "start_task"
        assert start.user_script == "r.sh"
        assert "B" not in arb.waiting

    def test_waiting_has_priority_over_fresh_equal_priority_start(self):
        """The XGC alternation: the queued code wins over the fresh START."""
        eng, sav, arb = make_world(
            tasks=(("RUN", 40, True), ("A", 40, False), ("B", 40, False)),
            priorities={"RUN": 0, "A": 0, "B": 0},
        )
        # RUN holds the node; both starts park — B first (queue seniority).
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None
        assert arb.arbitrate([suggestion(action=ActionType.START, target="A")], now=6.0) is None
        assert set(arb.waiting) == {"A", "B"}
        def stop_run():
            yield from sav.stop_task("RUN", graceful=False)
        eng.process(stop_run())
        eng.run(until=10.0)
        plan = arb.arbitrate([suggestion(action=ActionType.START, target="A")], now=10.0)
        started = [o.task for o in plan.ordered_ops() if o.op == "start_task"]
        assert started == ["B"]
        assert "A" in arb.waiting  # A stays parked behind B

    def test_victims_enter_waiting_queue(self):
        eng, sav, arb = make_world(
            tasks=(("A", 14, True), ("B", 14, True), ("C", 14, True)),
            priorities={"A": 0, "B": 1, "C": 2},
        )
        plan = arb.arbitrate([suggestion(target="B", params={"adjust-by": 10})], now=5.0)
        arb.on_plan_executed(plan, now=6.0)
        assert "C" in arb.waiting

    def test_switch_stops_assessed_and_starts_target(self):
        eng, sav, arb = make_world(tasks=(("A", 40, True), ("B", 40, False)),
                                   priorities={"A": 0, "B": 0})
        plan = arb.arbitrate(
            [suggestion(action=ActionType.SWITCH, target="B", assess="A")], now=5.0
        )
        ops = plan.ordered_ops()
        assert (ops[0].op, ops[0].task) == ("stop_task", "A")
        assert (ops[1].op, ops[1].task) == ("start_task", "B")


class TestTenancyQuota:
    """core_quota: the machine has room, but the tenant's lease does not."""

    def test_start_beyond_quota_parks(self):
        # A holds 10 of the node's 42 cores; quota 15 blocks a second
        # 10-core start even though the machine itself has room.
        eng, sav, arb = make_world(
            tasks=(("A", 10, True), ("B", 10, False)), core_quota=15
        )
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None
        assert "B" in arb.waiting

    def test_start_within_quota_proceeds(self):
        eng, sav, arb = make_world(
            tasks=(("A", 10, True), ("B", 10, False)), core_quota=20
        )
        plan = arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0)
        assert plan is not None
        assert [o.task for o in plan.ordered_ops() if o.op == "start_task"] == ["B"]

    def test_growth_beyond_quota_discarded(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True),), core_quota=15)
        plan = arb.arbitrate([suggestion(target="A", params={"adjust-by": 10})], now=5.0)
        assert plan is None  # growth is discarded, not queued
        assert "A" not in arb.waiting

    def test_growth_within_quota_proceeds(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True),), core_quota=25)
        plan = arb.arbitrate([suggestion(target="A", params={"adjust-by": 10})], now=5.0)
        assert plan is not None
        assert plan.reassignment["A"].total_cores == 20

    def test_no_quota_means_no_gate(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True), ("B", 10, False)))
        plan = arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0)
        assert plan is not None

    def test_waiting_task_drains_once_quota_frees(self):
        # B parks behind the quota; stopping A frees A's 10 held cores
        # and the next batch drains B from the waiting queue.
        eng, sav, arb = make_world(
            tasks=(("A", 10, True), ("B", 10, False)), core_quota=15
        )
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None
        plan = arb.arbitrate([suggestion(action=ActionType.STOP, target="A")], now=6.0)
        assert plan is not None
        ops = plan.ordered_ops()
        assert [o.op for o in ops] == ["stop_task", "start_task"]
        assert [o.task for o in ops] == ["A", "B"]
        assert "B" not in arb.waiting


def reasons(arb):
    return [(o.policy_id, o.action, o.target, o.reason) for o in arb.outcomes]


class TestOutcomes:
    """Every suggestion ends in exactly one outcome, and the plan's
    accepted/discarded lines are rendered from it."""

    def test_reason_renders_as_its_value(self):
        r = Reason.GATED_IN_FLIGHT
        assert (str(r), f"{r}", f"{r:>16}", json.dumps({r: r})) == (
            "gated-in-flight", "gated-in-flight", " gated-in-flight",
            '{"gated-in-flight": "gated-in-flight"}',
        )
        assert {r: 1}["gated-in-flight"] == 1  # a journaled str is the same key
        assert [c.value for c in (Reason.VICTIM, Reason.DEPENDENCY, Reason.WAITING_QUEUE)] == [
            "victim", "dependency", "waiting-queue",
        ]

    def test_each_gate_names_itself(self):
        eng, sav, arb = make_world(warmup=10.0, settle=60.0)
        arb.arbitrate([suggestion(), suggestion(target="C")], now=5.0)
        assert [o.reason for o in arb.outcomes] == [Reason.GATED_WARMUP] * 2
        plan = arb.arbitrate([suggestion(params={"adjust-by": 2})], now=11.0)
        arb.arbitrate([suggestion(target="C")], now=12.0)
        assert [o.reason for o in arb.outcomes] == [Reason.GATED_IN_FLIGHT]
        arb.on_plan_executed(plan, now=13.0)
        arb.arbitrate([suggestion(target="C")], now=14.0)
        assert [o.reason for o in arb.outcomes] == [Reason.GATED_SETTLE]
        arb.arbitrate([], now=15.0)
        assert arb.outcomes == []
        assert [o.time for o in sav.log.of_type(Outcome)] == [5.0, 5.0, 11.0, 12.0, 14.0]
        assert reason_counts(sav.log) == {
            Reason.GATED_WARMUP: 2, Reason.GRANTED: 1,
            Reason.GATED_IN_FLIGHT: 1, Reason.GATED_SETTLE: 1,
        }

    def test_superseded_and_no_op(self):
        eng, sav, arb = make_world(
            tasks=(("A", 10, True), ("B", 10, True), ("C", 10, False)),
            policy_priorities={"HIGH": 0, "LOW": 1},
        )
        plan = arb.arbitrate([
            suggestion(policy="LOW", action=ActionType.ADDCPU, target="B"),
            suggestion(policy="HIGH", action=ActionType.STOP, target="B"),
            suggestion(policy="HIGH", action=ActionType.STOP, target="B"),
            suggestion(policy="HIGH", action=ActionType.START, target="A"),
            suggestion(policy="HIGH", action=ActionType.STOP, target="C"),
        ], now=5.0)
        assert Counter(reasons(arb)) == Counter([
            ("HIGH", ActionType.STOP, "B", Reason.SUPERSEDED),  # the repeat
            ("LOW", ActionType.ADDCPU, "B", Reason.SUPERSEDED),
            ("HIGH", ActionType.START, "A", Reason.NO_OP),
            ("HIGH", ActionType.STOP, "C", Reason.NO_OP),
            ("HIGH", ActionType.STOP, "B", Reason.GRANTED),
        ])
        assert plan.accepted == ["HIGH:STOP:B"] and plan.discarded == []

    def test_refusals_render_as_before(self):
        eng, sav, arb = make_world(
            tasks=(("A", 21, True), ("B", 21, True), ("C", 10, False)),
            priorities={"A": 0, "B": 0, "C": 0},
        )
        plan = arb.arbitrate([
            suggestion(action=ActionType.STOP, target="A"),
            suggestion(action=ActionType.RECONFIG, target="B"),
            suggestion(policy="Q", action=ActionType.RECONFIG, target="B"),
            suggestion(target="B", params={"adjust-by": 30}),
            suggestion(action=ActionType.START, target="C", params={"nprocs": 40}),
        ], now=5.0)
        assert plan.accepted == ["P:STOP:A", "P:RECONFIG:B"]
        assert plan.discarded == [
            "Q:RECONFIG:B (conflicts with plan)",
            "P:ADDCPU:B (no resources, no victim)",
            "P:START:C (queued, no resources)",
        ]
        assert [o.reason for o in arb.outcomes] == [
            Reason.GRANTED, Reason.GRANTED, Reason.CONFLICTS_WITH_PLAN,
            Reason.DISCARDED_GROWTH, Reason.PARKED,
        ]
        # Every one is a line of the plan, so it names the plan.
        assert {o.plan_id for o in arb.outcomes} == {plan.plan_id}

    def test_switch_ends_in_its_start_half(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True), ("B", 10, False)))
        plan = arb.arbitrate(
            [suggestion(action=ActionType.SWITCH, target="B", assess="A")], now=5.0
        )
        assert plan.accepted == ["P:SWITCH-STOP:A", "P:SWITCH:B"]
        assert reasons(arb) == [("P", ActionType.SWITCH, "B", Reason.GRANTED)]

    def test_a_parked_suggestion_with_no_plan_keeps_its_outcome(self):
        eng, sav, arb = make_world(tasks=(("A", 10, True), ("B", 10, False)), core_quota=15)
        assert arb.arbitrate([suggestion(action=ActionType.START, target="B")], now=5.0) is None
        assert reasons(arb) == [("P", ActionType.START, "B", Reason.PARKED)]
        assert arb.outcomes[0].plan_id is None  # the plan had no op, so no id
        assert "B" in arb.waiting

    def test_dependency_restart_is_an_outcome(self):
        eng, sav, arb = TestDependentActions().make_chain()
        arb.arbitrate([
            suggestion(target="Iso", params={"adjust-by": 4}),
            suggestion(target="Render", params={"adjust-by": 4}, policy="P2"),
        ], now=5.0)
        assert ("P2", ActionType.ADDCPU, "Render", Reason.DEPENDENCY_RESTART) in reasons(arb)
        assert len(arb.outcomes) == 2

    def test_counts_round_trip_and_an_older_state_loads(self):
        """The counts are a view of the run log, which outlives the stage:
        the state carries none, and an older state that did still loads."""
        eng, sav, arb = make_world(warmup=120.0)
        arb.arbitrate([suggestion()], now=eng.now)
        state = arb.state_dict()
        assert "outcome_counts" not in state
        _, fresh_sav, fresh = make_world()
        fresh.load_state_dict({**json.loads(json.dumps(state)),
                               "outcome_counts": {"gated-warmup": 1}})
        assert fresh.state_dict() == state
        assert reason_counts(sav.log) == {Reason.GATED_WARMUP: 1}
        assert reason_counts(fresh_sav.log) == {}
