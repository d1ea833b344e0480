"""Model-based check: a Monitor round that polls only the woken bindings
delivers exactly what polling every binding would.

Two identical hubs, each with a ``MonitorClient`` over stream and
ERRORSTATUS bindings.  The reference client's round is the loop below,
which polls every binding in creation order, as the Monitor did before
it collected on change.  Rules publish on bound and unbound channels,
append exit statuses, restart tasks, bind late, collect, and move each
side's state into a fresh client through ``state_dict`` /
``load_state_dict``, or rewind the live client to its state before the
last round.  Every round must produce the same envelopes byte for byte,
and after every step both sides must hold the same cursors.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.machine import MachinePerf
from repro.core import MonitorClient
from repro.core.sensors import (
    ErrorStatusSource,
    GroupBySpec,
    JoinSpec,
    SensorInstance,
    SensorSpec,
    StreamSource,
)
from repro.staging import DataHub, Sample

TASKS = ("A", "B", "C")
LATE_TASKS = TASKS + ("D",)  # D's channel may be published on before it is bound
PACE = SensorSpec(
    "PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"), GroupBySpec("node-task", "SUM"))
)
LOOP = SensorSpec("LOOP", "TAUADIOS2", join=JoinSpec("PACE", "SUB"))
STATUS = SensorSpec("STATUS", "ERRORSTATUS")
SENSORS = {s.sensor_id: s for s in (PACE, LOOP, STATUS)}


class PollEveryBinding(MonitorClient):
    """The reference round: every binding, in creation order."""

    def collect(self, now):
        round_updates = {}
        for b in self.bindings:
            ups = b.instance.poll(now)
            if ups:
                round_updates.setdefault(b.sensor_id, []).extend(ups)
        return self._envelopes(round_updates, now)


def channel_name(task: str) -> str:
    return f"tau-W-{task}"


class Side:
    """One hub and the client reading it, rebuilt from its binding recipes."""

    def __init__(self, cls: type[MonitorClient]) -> None:
        self.cls = cls
        self.hub = DataHub()
        self.recipes: list[tuple[str, str]] = []
        self.client = cls("c0", MachinePerf())
        self.saved: tuple[int, dict] | None = None

    def _bind(self, client: MonitorClient, sensor_id: str, task: str) -> None:
        if sensor_id == "STATUS":
            source = ErrorStatusSource(self.hub.filesystem, f"status/W/{task}", "W", task)
        else:
            var = "looptime" if sensor_id == "PACE" else None
            source = StreamSource(self.hub, channel_name(task), "W", task, var=var)
        client.add_binding(SensorInstance(SENSORS[sensor_id], "W", task, source))

    def bind(self, sensor_id: str, task: str) -> None:
        self.recipes.append((sensor_id, task))
        self._bind(self.client, sensor_id, task)

    def restore(self) -> None:
        """A resume: a fresh client over the surviving hub loads the state."""
        fresh = self.cls("c0", MachinePerf())
        for sensor_id, task in self.recipes:
            self._bind(fresh, sensor_id, task)
        fresh.load_state_dict(json.loads(json.dumps(self.client.state_dict())))
        self.client = fresh

    def save(self) -> None:
        self.saved = (len(self.recipes), json.loads(json.dumps(self.client.state_dict())))

    def rewind(self) -> None:
        """Load the saved state into the live client: its cursors move back."""
        self.client.load_state_dict(self.saved[1])

    def cursors(self) -> str:
        return json.dumps(self.client.state_dict(), sort_keys=True)


values = st.one_of(
    st.integers(-3, 3),
    st.floats(-1e6, 1e6, allow_nan=False, width=32),
    st.booleans(),
)
samples = st.lists(
    st.tuples(st.sampled_from(["looptime", "other"]), st.sampled_from(["n0", "n1"]), values),
    min_size=1,
    max_size=3,
)


class CollectOnChange(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.steps: dict[str, int] = {}
        self.woken = Side(MonitorClient)
        self.reference = Side(PollEveryBinding)
        self.sides = (self.woken, self.reference)
        for task in TASKS:
            self.bind_late("PACE", task)
        for task in TASKS[:2]:
            self.bind_late("STATUS", task)

    def publish(self, channel: str, task: str, batch, as_dict: bool) -> None:
        step = self.steps.get(channel, 0)
        self.steps[channel] = step + 1
        if as_dict:
            data = {var: value for var, _node, value in batch}
        else:
            data = [
                Sample(time=self.now, workflow_id="W", task=task, rank=rank, node_id=node,
                       var=var, value=value, step=step)
                for rank, (var, node, value) in enumerate(batch)
            ]
        for side in self.sides:
            side.hub.channel(channel).put(data, self.now)

    @rule(task=st.sampled_from(LATE_TASKS), batch=samples, as_dict=st.booleans())
    def put(self, task, batch, as_dict):
        self.publish(channel_name(task), task, batch, as_dict)

    @rule(batch=samples)
    def put_unbound(self, batch):
        self.publish("tau-W-nobody", "nobody", batch, as_dict=False)

    @rule(task=st.sampled_from(TASKS), code=st.integers(0, 2))
    def exit_status(self, task, code):
        for side in self.sides:
            side.hub.filesystem.append_record(
                f"status/W/{task}", {"code": code, "time": self.now, "rank": 0}, mtime=self.now
            )

    @rule(task=st.sampled_from(LATE_TASKS))
    def restart(self, task):
        for side in self.sides:
            side.client.on_task_restart(task)

    @rule(sensor_id=st.sampled_from(sorted(SENSORS)), task=st.sampled_from(LATE_TASKS))
    def bind_late(self, sensor_id, task):
        for side in self.sides:
            side.bind(sensor_id, task)

    @rule()
    def collect(self):
        self.now += 1.0
        for side in self.sides:
            side.save()
        got, want = (
            [(lag, env.to_json()) for lag, env in side.client.collect(self.now)]
            for side in self.sides
        )
        assert got == want

    @rule()
    def resume(self):
        for side in self.sides:
            side.restore()

    @precondition(lambda self: self.woken.saved is not None
                  and self.woken.saved[0] == len(self.woken.recipes))
    @rule()
    def rewind(self):
        for side in self.sides:
            side.rewind()

    @invariant()
    def same_cursors(self):
        assert self.woken.cursors() == self.reference.cursors()


CollectOnChange.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, derandomize=True, deadline=None
)
TestCollectOnChange = CollectOnChange.TestCase
