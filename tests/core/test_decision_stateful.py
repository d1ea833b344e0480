"""Model-based check: a Decision stage that parks each runtime until its
frequency bucket turns emits exactly what evaluating every runtime at
every tick would.

Two stages with the same policies: the parked ``DecisionStage`` and a
twin whose tick asks every runtime in creation order, as a stage with no
bookkeeping would.  Rules ingest updates, tick at non-decreasing times
(repeated ones and ones off the frequency grid included), restart tasks,
and move each side's state into a fresh stage through ``state_dict`` /
``load_state_dict``.  Every tick must return the same suggestions, and
after every step both sides must hold the same ``fired`` counts and the
same state.  A tick of the parked stage must also visit every runtime
that is due and can answer, and no runtime it parked that is not due.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ActionType, DecisionStage, MetricUpdate, PolicyApplication, PolicySpec

TASKS = ("A", "B")
POLICIES = [
    PolicySpec(f"P{window}-{freq}", "PACE", "GT", 0.5, ActionType.ADDCPU,
               history_window=window, frequency=freq)
    for window in (1, 3)
    for freq in (0.0, 0.3, 5.0)
]


class EvaluateEveryRuntime(DecisionStage):
    """The reference tick: every runtime, in creation order."""

    def tick(self, now):
        out = []
        for rt in self._runtimes:
            out.extend(rt.evaluate(now))
        return out


def build(cls: type[DecisionStage]) -> DecisionStage:
    stage = cls()
    for spec in POLICIES:
        stage.add_policy(spec)
    for spec in POLICIES:
        for task in TASKS:
            stage.apply_policy(PolicyApplication(spec.policy_id, "W", (task,), assess_task=task))
    return stage


def described(suggestions) -> list[tuple]:
    return [(s.policy_id, s.action, s.target, s.metric_value, s.trigger_time)
            for s in suggestions]


class ParkUntilDue(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.parked = build(DecisionStage)
        self.reference = build(EvaluateEveryRuntime)

    @rule(task=st.sampled_from(TASKS), value=st.sampled_from([0.0, 1.0, 0.75]),
          back=st.sampled_from([0.0, 0.1]))
    def ingest(self, task, value, back):
        u = MetricUpdate("PACE", "W", task, "task", (task,), value, max(0.0, self.now - back))
        for stage in (self.parked, self.reference):
            stage.ingest([u])

    @rule(dt=st.sampled_from([0.0, 0.0, 0.1, 0.15, 0.3, 0.45, 1.0, 2.5, 4.9, 5.0, 7.3]))
    def tick(self, dt):
        self.now += dt
        now = self.now
        runtimes = self.parked.runtimes
        # Who must, and who must not, be visited: judged before the tick.
        must = {i for i, rt in enumerate(runtimes) if rt.can_answer() and rt.due(now)}
        must_not = {i for i, rt in enumerate(runtimes)
                    if rt.bucket is not None and not rt.due(now)}
        visited: set[int] = set()
        for i, rt in enumerate(runtimes):
            rt.evaluate = lambda t, i=i, rt=rt: visited.add(i) or type(rt).evaluate(rt, t)
        try:
            got = described(self.parked.tick(now))
        finally:
            for rt in runtimes:
                del rt.evaluate
        assert got == described(self.reference.tick(now))
        assert must <= visited
        assert not visited & must_not

    @rule(task=st.sampled_from(TASKS + ("nobody",)))
    def restart(self, task):
        for stage in (self.parked, self.reference):
            stage.on_task_restart(task)

    @rule()
    def resume(self):
        self.parked = self._resumed(self.parked, DecisionStage)
        self.reference = self._resumed(self.reference, EvaluateEveryRuntime)

    @staticmethod
    def _resumed(stage: DecisionStage, cls: type[DecisionStage]) -> DecisionStage:
        fresh = build(cls)
        fresh.load_state_dict(json.loads(json.dumps(stage.state_dict())))
        return fresh

    @invariant()
    def same_state(self):
        assert [rt.fired for rt in self.parked.runtimes] == [
            rt.fired for rt in self.reference.runtimes
        ]
        assert self.parked.state_dict() == self.reference.state_dict()


ParkUntilDue.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, derandomize=True, deadline=None
)
TestParkUntilDue = ParkUntilDue.TestCase
