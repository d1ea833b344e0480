"""Model-based check: the waiting-queue memo never changes a decision.

``ArbitrationStage`` skips a waiting-only tick when the resource epoch
and the waiting queue are what its last fruitless retry saw.  The state
machine below drives two identical resource-manager + arbiter stacks
through the same random history — START / STOP / RESTART / resize
suggestions that park on a full machine, task exits, a launcher retry
that books cores before it marks the task active, node failure and
recovery, quarantine trips, clock advances past the cooldown, idle
ticks — and clears the second stack's memos before every call.  After
every step the two must agree on the plan, the waiting queue, the
quarantine history and the assignment, and both must hold the resource
manager's invariants.  Every suggestion of every call must end in
exactly one outcome, and a granted one must be in the plan it built.
And a step that moves an arbiter's journaled state moves its
``revision``: a barrier hands that state over while the revision stands.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import Allocation, ResourceManager, summit
from repro.core import ActionType, ArbitrationRules, ArbitrationStage, SuggestedAction
from repro.core import arbitration
from repro.core.actions import Reason, render_outcome
from repro.errors import AllocationError
from repro.resilience import NodeQuarantine, QuarantineSpec
from repro.telemetry.tracer import Tracer
from repro.wms import CouplingType, DependencySpec

NODES = 3
CORES = 4  # twelve cores: three mid-size tasks fill the machine
TASKS = {"T0": (5, 2), "T1": (3, None), "T2": (4, 2), "T3": (6, None)}
COOLDOWN = 30.0

IDLE, BOOKED, RUNNING = "idle", "booked", "running"


class Spec:
    def __init__(self, nprocs: int, procs_per_node: int | None) -> None:
        self.nprocs = nprocs
        self.procs_per_node = procs_per_node


class Record:
    """The slice of a launcher task record Arbitration reads."""

    def __init__(self, spec: Spec) -> None:
        self.spec = spec
        self.state = IDLE

    @property
    def is_active(self) -> bool:
        return self.state == RUNNING

    @property
    def is_running(self) -> bool:
        return self.state == RUNNING


class Stack:
    """One allocation, resource manager, quarantine and arbiter."""

    def __init__(self, clock: list[float]) -> None:
        self.clock = clock
        machine = summit(NODES, cores_per_node=CORES)
        self.nodes = machine.nodes
        self.allocation = Allocation("a0", machine, machine.nodes, walltime_limit=1e12)
        self.quarantine = NodeQuarantine(
            QuarantineSpec(failures=1, window=100.0, cooldown=COOLDOWN), lambda: clock[0]
        )
        self.rm = ResourceManager(self.allocation, quarantine=self.quarantine)
        self.records = {name: Record(Spec(*shape)) for name, shape in TASKS.items()}
        rules = ArbitrationRules(
            workflow_id="W",
            task_priorities={name: i for i, name in enumerate(TASKS)},
            policy_priorities={"P0": 0, "P1": 1},
            dependencies=[DependencySpec("T1", "T0", CouplingType.TIGHT)],
        )
        self.arb = ArbitrationStage(self, rules, warmup=0.0, settle=0.0)
        self.arb.begin(0.0)

    def record(self, name: str) -> Record:
        return self.records[name]

    def actuate(self, plan, now: float) -> None:
        """Execute a plan at once, the way Actuation drives the launcher."""
        for op in plan.ordered_ops():
            rec = self.records[op.task]
            if op.op == "stop_task":
                self.rm.release_if_held(op.task)
                rec.state = IDLE
            elif op.op == "start_task":
                self.rm.release_if_held(op.task)  # a booked launcher retry yields
                self.rm.assign_set(op.task, op.resources)
                rec.state = RUNNING
        self.arb.on_plan_executed(plan, now)

    def finish(self, task: str) -> None:
        self.rm.release_if_held(task)
        self.records[task].state = IDLE

    def observable(self) -> tuple:
        return (
            self.arb.state_dict()["waiting"],
            list(self.quarantine.history),
            self.rm.state_dict(),
            {name: rec.state for name, rec in self.records.items()},
        )


tasks = st.sampled_from(sorted(TASKS))
nodes = st.integers(0, NODES - 1)


class WakeOnChange(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = [0.0]
        self.memo = Stack(self.clock)
        self.fresh = Stack(self.clock)
        self.stacks = (self.memo, self.fresh)
        self.last: tuple[list[SuggestedAction], list] = ([], [None, None])
        self.journaled = [self._journaled(stack) for stack in self.stacks]

    @staticmethod
    def _journaled(stack) -> tuple[str, int]:
        return json.dumps(stack.arb.state_dict(), sort_keys=True), stack.arb.revision

    def arbitrate(self, suggestions: list[SuggestedAction]) -> None:
        now = self.clock[0]
        # The reference stack keeps no memo at all: neither the skipped
        # tick's key nor the placement-feasibility cache.
        self.fresh.arb._idle_key = None
        self.fresh.arb._feasibility = arbitration._FeasibilityCache()
        plans = [stack.arb.arbitrate(suggestions, now) for stack in self.stacks]
        self.last = (suggestions, plans)
        got, want = (p.to_dict() if p is not None else None for p in plans)
        assert got == want
        for stack, plan in zip(self.stacks, plans):
            if plan is not None:
                stack.actuate(plan, now)

    # -- suggestions and ticks --------------------------------------------------
    @rule(task=tasks, nprocs=st.integers(1, 8), policy=st.sampled_from(["P0", "P1"]))
    def start(self, task, nprocs, policy):
        self.arbitrate([SuggestedAction(policy, ActionType.START, task, "W",
                                        params={"nprocs": nprocs})])

    @rule(task=tasks, action=st.sampled_from(
        [ActionType.STOP, ActionType.RESTART, ActionType.ADDCPU, ActionType.RMCPU]))
    def act(self, task, action):
        self.arbitrate([SuggestedAction("P0", action, task, "W", params={"adjust-by": 2})])

    @rule()
    def tick(self):
        self.arbitrate([])

    # -- the world moving under the arbiter; the orchestrator ticks after ----------
    def world(self, change) -> None:
        for stack in self.stacks:
            change(stack)
        self.arbitrate([])

    @rule(task=tasks)
    def finish(self, task):
        self.world(lambda stack: stack.finish(task))

    @rule(task=tasks)
    def launcher_books(self, task):
        """A launcher retry books cores first (the epoch moves) ..."""
        def book(stack):
            rec = stack.records[task]
            if rec.state == IDLE and task not in stack.rm.owners():
                try:
                    stack.rm.assign(task, TASKS[task][0])
                except AllocationError:
                    return
                rec.state = BOOKED
        self.world(book)

    @rule(task=tasks)
    def launcher_launches(self, task):
        """... and marks the task active later (the epoch does not move)."""
        def launch(stack):
            rec = stack.records[task]
            if rec.state == BOOKED:
                rec.state = RUNNING
        self.world(launch)

    @rule(i=nodes)
    def fail_node(self, i):
        def fail(stack):
            node = stack.nodes[i]
            if node.is_up:
                node.fail()
                stack.rm.on_node_failure(node.node_id)  # owners keep running, stripped
        self.world(fail)

    @rule(i=nodes)
    def recover_node(self, i):
        def recover(stack):
            node = stack.nodes[i]
            if not node.is_up:
                node.recover()
        self.world(recover)

    @rule(i=nodes)
    def trip_quarantine(self, i):
        self.world(lambda stack: stack.quarantine.record_failure(stack.nodes[i].node_id))

    @rule(dt=st.sampled_from([1.0, 5.0, COOLDOWN + 1.0]))
    def advance(self, dt):
        self.clock[0] += dt
        self.arbitrate([])

    # -- after every step ----------------------------------------------------------
    @invariant()
    def every_suggestion_ends_in_one_outcome(self):
        suggestions, plans = self.last
        for stack, plan in zip(self.stacks, plans):
            assert len(stack.arb.outcomes) == len(suggestions)
            granted = [
                render_outcome(o.policy_id, o.action.value, o.target, o.reason)
                for o in stack.arb.outcomes if o.reason is Reason.GRANTED
            ]
            if granted:
                assert plan is not None and set(granted) <= set(plan.accepted)

    @invariant()
    def a_moved_state_moved_the_revision(self):
        for i, stack in enumerate(self.stacks):
            (before, revision), now = self.journaled[i], self._journaled(stack)
            assert now[0] == before or now[1] != revision, "state moved, revision did not"
            self.journaled[i] = now

    @invariant()
    def stacks_agree(self):
        assert self.memo.observable() == self.fresh.observable()
        for stack in self.stacks:
            stack.rm.check_invariants()


WakeOnChange.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, deadline=None
)
TestWakeOnChange = WakeOnChange.TestCase


class TestWakeOnChangeExamples:
    """Hand-built histories: what skips a retry, and what wakes one."""

    def park(self) -> Stack:
        stack = Stack([0.0])
        for task in ("T0", "T2"):
            stack.rm.assign(task, TASKS[task][0])
            stack.records[task].state = RUNNING
        stack.rm.assign("T1", 3)
        stack.records["T1"].state = RUNNING  # machine: 12 of 12 cores held
        stack.finish("T1")  # three free, T3 needs six
        plan = stack.arb.arbitrate(
            [SuggestedAction("P0", ActionType.START, "T3", "W")], 0.0
        )
        assert plan is None and list(stack.arb.waiting) == ["T3"]
        return stack

    def shadows(self, monkeypatch) -> list:
        built: list = []
        original = arbitration._Shadow.__init__

        def spy(shadow, *args, **kwargs):
            built.append(shadow)
            original(shadow, *args, **kwargs)

        monkeypatch.setattr(arbitration._Shadow, "__init__", spy)
        return built

    def test_unchanged_epoch_builds_no_shadow(self, monkeypatch):
        stack = self.park()
        built = self.shadows(monkeypatch)
        for t in (1.0, 2.0, 3.0):
            assert stack.arb.arbitrate([], t) is None
        assert built == [] and stack.arb.outcome_counts == {
            Reason.PARKED: 1, Reason.WAITING_UNCHANGED: 3,
        }

    def test_a_traced_run_counts_the_skipped_retries(self):
        stack = self.park()
        stack.arb.tracer = tracer = Tracer(clock=lambda: 0.0)
        stack.arb.arbitrate([], 1.0)
        stack.finish("T0")  # five cores back: the retry places T3
        stack.arb.arbitrate([], 2.0)
        assert tracer.metrics.counter("outcome.waiting-unchanged").value == 1
        assert tracer.metrics.counter("arbitration.plans").value == 1

    def test_a_release_wakes_the_queue(self, monkeypatch):
        stack = self.park()
        built = self.shadows(monkeypatch)
        stack.finish("T2")
        plan = stack.arb.arbitrate([], 1.0)
        assert len(built) == 1
        assert [(op.op, op.task) for op in plan.ops] == [("start_task", "T3")]
        assert stack.arb.waiting == {}

    def test_an_elapsed_quarantine_wakes_the_queue(self, monkeypatch):
        stack = self.park()
        stack.quarantine.record_failure(stack.nodes[1].node_id, now=0.0)
        stack.finish("T2")  # its three cores on the barred node do not count
        assert stack.arb.arbitrate([], 1.0) is None  # retried: four usable
        built = self.shadows(monkeypatch)
        assert stack.arb.arbitrate([], 2.0) is None and built == []
        stack.clock[0] = COOLDOWN + 1.0
        plan = stack.arb.arbitrate([], stack.clock[0])
        assert len(built) == 1 and [op.task for op in plan.ops] == ["T3"]

    def test_a_recovered_node_wakes_the_queue(self, monkeypatch):
        stack = self.park()
        stack.nodes[1].fail()
        stack.rm.on_node_failure(stack.nodes[1].node_id)
        assert stack.arb.arbitrate([], 1.0) is None  # retried: three usable
        built = self.shadows(monkeypatch)
        stack.nodes[1].recover()  # four cores back, no assignment moved
        plan = stack.arb.arbitrate([], 2.0)
        assert len(built) == 1 and [op.task for op in plan.ops] == ["T3"]

    def test_a_resume_rebuilds_one_shadow(self, monkeypatch):
        stack = self.park()
        stack.arb.load_state_dict(stack.arb.state_dict())  # the memo is not journaled
        built = self.shadows(monkeypatch)
        for t in (1.0, 2.0):
            assert stack.arb.arbitrate([], t) is None
        assert len(built) == 1 and list(stack.arb.waiting) == ["T3"]

    def test_a_task_started_elsewhere_leaves_the_queue(self):
        stack = self.park()
        stack.records["T3"].state = RUNNING  # no core moved: the epoch holds
        assert stack.arb.arbitrate([], 1.0) is None
        assert stack.arb.waiting == {}
        assert Reason.WAITING_UNCHANGED not in stack.arb.outcome_counts
