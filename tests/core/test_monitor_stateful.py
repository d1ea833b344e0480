"""Model-based check: a Monitor round that polls only the woken bindings
delivers exactly what polling every binding would.

Two identical hubs and health engines, each with a ``MonitorClient``
over stream, ERRORSTATUS, FILEREAD, DISKSCAN and HEALTH bindings.  The
reference client's round is the loop below, which polls every binding in
creation order, as the Monitor did before it collected on change.  Rules
publish on bound and unbound channels, append, rewrite and remove exit
statuses, create, replace and remove read and scanned files (matching a
bound pattern or not), publish health samples, restart tasks, bind late,
collect, and move each side's state into a fresh client through
``state_dict`` / ``load_state_dict``, or rewind the live client to its
state before the last round.  Every round must produce the same
envelopes byte for byte, and after every step both sides must hold the
same cursors.  A DISKSCAN position is the one exception: a woken scan
moves it only when a matching file was created, so the two sides are
held to the same unreported matching files behind it instead.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.machine import MachinePerf
from repro.core import MonitorClient
from repro.core.sensors import (
    DiskScanSource,
    ErrorStatusSource,
    FileReadSource,
    GroupBySpec,
    JoinSpec,
    SensorInstance,
    SensorSpec,
    StreamSource,
)
from repro.observability import HealthEngine, ObservabilitySpec
from repro.staging import DataHub, Sample

TASKS = ("A", "B", "C")
LATE_TASKS = TASKS + ("D",)  # D's channel may be published on before it is bound
PACE = SensorSpec(
    "PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"), GroupBySpec("node-task", "SUM"))
)
LOOP = SensorSpec("LOOP", "TAUADIOS2", join=JoinSpec("PACE", "SUB"))
STATUS = SensorSpec("STATUS", "ERRORSTATUS")
READ = SensorSpec("READ", "FILEREAD")
SCAN = SensorSpec("SCAN", "DISKSCAN")
HEALTH = SensorSpec("HEALTH", "HEALTH")
SENSORS = {s.sensor_id: s for s in (PACE, LOOP, STATUS, READ, SCAN, HEALTH)}


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
        self.load = 0.0
        self.health = HealthEngine(
            ObservabilitySpec(eval_every=1.0), workflow_id="W",
            aggregates=lambda: {"load": self.load, "other": -self.load},
        )
        self.recipes: list[tuple[str, str]] = []
        self.client = cls("c0", MachinePerf())
        self.saved: tuple[int, dict] | None = None

    def _bind(self, client: MonitorClient, sensor_id: str, task: str) -> None:
        fs = self.hub.filesystem
        if sensor_id == "STATUS":
            source = ErrorStatusSource(fs, f"status/W/{task}", "W", task)
        elif sensor_id == "READ":
            source = FileReadSource(fs, f"io/{task}.json", "W", task, "err")
        elif sensor_id == "SCAN":
            source = DiskScanSource(fs, f"out/{task}.out.*", "W", task)
        elif sensor_id == "HEALTH":
            source = self.health.bind_source("load" if task == "A" else None)
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
        state = self.client.state_dict()
        fs = self.hub.filesystem
        for i, b in enumerate(self.client.bindings):
            source = b.instance.source
            if isinstance(source, DiskScanSource):
                created, _end = fs.created_since(state["cursors"][i]["pos"])
                state["cursors"][i] = [e.path for e in created if source._matches(e.path)]
        return json.dumps(state, sort_keys=True)


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
        for sensor_id in ("READ", "SCAN", "HEALTH"):
            self.bind_late(sensor_id, "A")

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

    @rule(task=st.sampled_from(TASKS), records=st.integers(0, 2))
    def rewrite_status(self, task, records):
        for side in self.sides:
            side.hub.filesystem.write(
                f"status/W/{task}",
                [{"code": 3, "time": self.now, "rank": 0}] * records, mtime=self.now,
            )

    @rule(task=st.sampled_from(LATE_TASKS), err=st.integers(-2, 2))
    def write_read_file(self, task, err):
        for side in self.sides:
            side.hub.filesystem.write(f"io/{task}.json", {"err": err}, mtime=self.now)

    @rule(task=st.sampled_from(LATE_TASKS + ("nobody",)), step=st.integers(0, 3))
    def write_output(self, task, step):
        """Create or replace an output file; 'nobody' matches no pattern."""
        for side in self.sides:
            side.hub.filesystem.write(f"out/{task}.out.{step}", None, self.now, step=step)

    @rule(data=st.data())
    def remove_file(self, data):
        paths = [e.path for e in self.woken.hub.filesystem.scan("*")]
        if not paths:
            return
        path = data.draw(st.sampled_from(paths))
        for side in self.sides:
            side.hub.filesystem.remove(path)

    @rule(load=st.integers(0, 3))
    def health_tick(self, load):
        """Publishes once per runtime second: a second call at the same
        time evaluates nothing."""
        for side in self.sides:
            side.load = float(load)
            side.health.tick(self.now)

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
