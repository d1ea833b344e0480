"""One task's event must not touch the other tasks' state.

Count-based (never wall-clock) checks that the launch -> Monitor ->
Decision path visits only what an event concerns: a task start reaches
that task's bindings, an idle sensor round polls no watched binding, a tick
evaluates only policies with something to assess, a DISKSCAN poll looks
at the files created since the last one, a publishing step reads its own
producer's consumers, an idle Arbitration tick re-examines its waiting
queue only when the answer could differ.  Each count is what a scan over
all N entries — or a retry on every tick — would get wrong.
"""

import numpy as np
import pytest

from repro.apps import CouplingRegistry
from repro.cluster.machine import MachinePerf
from repro.core import (
    ActionType,
    DecisionStage,
    MetricUpdate,
    MonitorClient,
    PolicyApplication,
    PolicySpec,
)
from repro.core.arbitration import _Shadow
from repro.core.policy import PolicyRuntime
from repro.core.sensors import (
    DiskScanSource,
    ErrorStatusSource,
    SensorInstance,
    SensorSpec,
    StreamSource,
)
from repro.core.sensors.preprocess import preprocess_value
from repro.core.sensors.sources import DataSource
from repro.errors import SensorError
from repro.experiments import (
    run_gray_scott_experiment,
    run_lammps_experiment,
    run_xgc_experiment,
)
from repro.experiments.synthetic import run_synthetic_experiment
from repro.staging import DataHub, Sample, SimFilesystem
from repro.staging.stream import StreamReader

N = 500
PACE = SensorSpec("PACE", "TAUADIOS2")
STATUS = SensorSpec("STATUS", "ERRORSTATUS")


class SpySource(DataSource):
    def __init__(self) -> None:
        self.reconnects = 0

    def poll(self, now):
        return []

    def reconnect(self) -> None:
        self.reconnects += 1


class SpyInstance:
    """A sensor instance that counts how often its task is looked at."""

    def __init__(self, spec: SensorSpec, task: str) -> None:
        self.spec = spec
        self.workflow_id = "W"
        self._task = task
        self.source = SpySource()
        self.task_reads = 0

    @property
    def task(self) -> str:
        self.task_reads += 1
        return self._task

    def poll(self, now):
        return self.source.poll(now)

    def reconnect(self) -> None:
        self.source.reconnect()


def task_name(i: int) -> str:
    return f"T{i}"


def count_calls(monkeypatch, cls, name: str) -> list:
    """Patch ``cls.name`` to log the instance of every call."""
    calls: list = []
    original = getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


class TestTaskRestart:
    def test_only_the_restarted_tasks_bindings_are_touched(self):
        client = MonitorClient("c0", MachinePerf())
        instances = [SpyInstance(PACE, task_name(i)) for i in range(N)]
        instances.append(SpyInstance(STATUS, "T7"))  # a second sensor watching T7
        for inst in instances:
            client.add_binding(inst)
        for inst in instances:
            inst.task_reads = 0

        client.on_task_restart("T7")

        reconnected = [i for i in instances if i.source.reconnects]
        assert reconnected == [instances[7], instances[N]]
        assert all(i.source.reconnects == 1 for i in reconnected)
        assert sum(i.task_reads for i in instances) == 0

    def test_unknown_task_is_a_no_op(self):
        client = MonitorClient("c0", MachinePerf())
        inst = SpyInstance(PACE, "T0")
        client.add_binding(inst)
        client.on_task_restart("nobody")
        assert inst.source.reconnects == 0


class TestIdleCollect:
    def _client(self, hub, n=N):
        client = MonitorClient("c0", MachinePerf())
        for i in range(n):
            self._bind(client, hub, i)
        return client

    @staticmethod
    def _bind(client, hub, i):
        task = task_name(i)
        source = StreamSource(hub, f"tau-W-{task}", "W", task, var="looptime")
        client.add_binding(SensorInstance(PACE, "W", task, source))
        return source

    def test_idle_round_drains_nothing_and_still_connects(self, monkeypatch):
        hub = DataHub()
        client = self._client(hub)
        client.collect(0.0)  # connects every source
        late = self._bind(client, hub, N)  # bound after the others connected
        drains = count_calls(monkeypatch, StreamReader, "drain")

        assert client.collect(1.0) == []
        assert late._reader is not None
        assert [r.name for r in drains] == [f"monitor:{task_name(N)}"]

        del drains[:]
        assert client.collect(2.0) == []
        assert drains == []

    @staticmethod
    def _publish(hub, task, value, time=1.0):
        hub.channel(f"tau-W-{task}").put(
            [Sample(time=time, workflow_id="W", task=task, rank=0, node_id="n0",
                    var="looptime", value=value, step=0)],
            time,
        )

    def test_a_published_step_is_the_only_read(self, monkeypatch):
        hub = DataHub()
        client = self._client(hub)
        client.collect(0.0)
        drains = count_calls(monkeypatch, StreamReader, "drain")
        polls = count_calls(monkeypatch, SensorInstance, "poll")
        self._publish(hub, "T7", 2.5)
        out = client.collect(1.0)
        assert [r.name for r in drains] == ["monitor:T7"]
        assert [inst.task for inst in polls] == ["T7"]
        (_lag, env), = out
        assert [(u["task"], u["value"]) for u in env.payload["updates"]] == [("T7", 2.5)]

    def test_an_idle_round_polls_only_the_unwatched_bindings(self, monkeypatch):
        hub = DataHub()
        client = self._client(hub)
        status = ErrorStatusSource(hub.filesystem, "status/W/T0", "W", "T0")
        client.add_binding(SensorInstance(STATUS, "W", "T0", status))
        client.collect(0.0)
        polls = count_calls(monkeypatch, SensorInstance, "poll")
        assert client.collect(1.0) == []
        assert [inst.source for inst in polls] == [status]

    def test_a_restart_wakes_only_that_tasks_bindings(self, monkeypatch):
        hub = DataHub()
        client = self._client(hub)
        loop = StreamSource(hub, "tau-W-T7", "W", "T7")  # a second sensor on T7's stream
        client.add_binding(SensorInstance(SensorSpec("LOOP", "TAUADIOS2"), "W", "T7", loop))
        client.collect(0.0)
        polls = count_calls(monkeypatch, SensorInstance, "poll")
        client.on_task_restart("T7")
        assert client.collect(1.0) == []
        assert [(inst.task, inst.spec.sensor_id) for inst in polls] == [
            ("T7", "PACE"), ("T7", "LOOP"),
        ]
        del polls[:]
        assert client.collect(2.0) == [] and polls == []

    def test_a_float_sample_never_builds_an_array(self, monkeypatch):
        arrays: list = []
        asarray = np.asarray

        def spy(*args, **kwargs):
            arrays.append(args)
            return asarray(*args, **kwargs)

        monkeypatch.setattr(np, "asarray", spy)
        hub = DataHub()
        client = self._client(hub, n=10)
        client.collect(0.0)
        self._publish(hub, "T3", 2.5)
        assert len(client.collect(1.0)) == 1
        assert arrays == []
        self._publish(hub, "T3", np.array(2.5), time=2.0)  # a 0-d array still takes it
        assert len(client.collect(2.0)) == 1
        assert len(arrays) == 1

    def test_a_synthetic_run_polls_at_most_updates_plus_two_per_binding(self, monkeypatch):
        """The first poll connects and each task start reconnects: two
        polls per binding beyond the ones that carry data."""
        polls = count_calls(monkeypatch, SensorInstance, "poll")
        tasks = 60
        result = run_synthetic_experiment(tasks)
        updates = result.meta["updates_seen"]
        assert updates == tasks * 8
        assert len(polls) <= updates + 2 * tasks


@pytest.mark.parametrize("value", [3, -7, 2 ** 62 + 1, 2.5, -0.0, True, False,
                                   np.float64(1.25), np.array(4.5)])
def test_the_scalar_path_equals_the_array_path(value):
    got = preprocess_value(None, value)
    want = float(np.asarray(value, dtype=float))
    assert type(got) is float and repr(got) == repr(want)


@pytest.mark.parametrize("value", [[1.0, 2.0], np.array([1.0])])
def test_a_non_scalar_still_raises(value):
    with pytest.raises(SensorError):
        preprocess_value(None, value)


class TestDiskScanPoll:
    ON_DISK = 2000

    def test_a_poll_examines_only_files_created_since_the_last_one(self, monkeypatch):
        fs = SimFilesystem()
        src = DiskScanSource(fs, "out/T.out.*", "W", "T")
        for i in range(self.ON_DISK):
            fs.write(f"out/T.out.{i}", None, float(i), step=i)
        assert len(src.poll(0.0)) == self.ON_DISK

        examined: list[int] = []
        read = SimFilesystem.created_since

        def spy(self, pos):
            entries, end = read(self, pos)
            examined.append(len(entries))
            return entries, end

        monkeypatch.setattr(SimFilesystem, "created_since", spy)
        scans = count_calls(monkeypatch, SimFilesystem, "scan")

        assert src.poll(1.0) == [] and examined == [0]  # idle: nothing looked at

        k = 3
        for i in range(self.ON_DISK, self.ON_DISK + k):
            fs.write(f"out/T.out.{i}", None, float(i), step=i)
        fs.write("out/T.out.0", None, 9e9, step=0)  # replaced, not created
        fs.write("ckpt/T.0", None, 0.0)  # created, not matching: examined, not reported
        assert [s.step for s in src.poll(2.0)] == [2000, 2001, 2002]
        assert examined == [0, k + 1]
        assert src.poll(3.0) == [] and examined == [0, k + 1, 0]
        assert scans == []


class ReadCountingDict(dict):
    """A dict that counts the entries handed out by a walk over it."""

    reads = 0

    def __iter__(self):
        for key in super().__iter__():
            self.reads += 1
            yield key

    def keys(self):
        return list(self)

    def values(self):
        return [self[key] for key in self]

    def items(self):
        return [(key, self[key]) for key in self]


class TestCouplingPublish:
    def _registry(self) -> tuple[CouplingRegistry, ReadCountingDict]:
        reg = CouplingRegistry(max_inflight=2)
        for i in range(N):
            reg.register_consumer(f"P{i}", f"C{i}")  # N unrelated couplings
        reg.register_consumer("P7", "D7")
        table = reg._consumed = ReadCountingDict(
            (producer, ReadCountingDict(consumers))
            for producer, consumers in reg._consumed.items()
        )
        return reg, table

    @staticmethod
    def _reads(table: ReadCountingDict) -> int:
        return table.reads + sum(consumers.reads for consumers in dict.values(table))

    def test_can_publish_reads_only_its_own_producers_consumers(self):
        reg, table = self._registry()
        reg.mark_consumed("P7", "C7", 4)
        reg.mark_consumed("P7", "D7", 9)
        assert reg.can_publish("P7", 6) and not reg.can_publish("P7", 7)
        assert self._reads(table) == 2 * 2  # C7 and D7, once per call

    def test_an_uncoupled_producer_reads_nothing(self):
        reg, table = self._registry()
        assert reg.can_publish("nobody", 10 ** 6)
        assert reg.active_consumers("nobody") == []
        assert self._reads(table) == 0

    def test_active_consumers_is_sorted_and_local(self):
        reg, table = self._registry()
        reg.register_consumer("P7", "A7")
        assert reg.active_consumers("P7") == ["A7", "C7", "D7"]
        assert self._reads(table) == 3


def policy(policy_id: str, window: int) -> PolicySpec:
    return PolicySpec(policy_id, "PACE", "GT", 36.0, ActionType.ADDCPU,
                      history_window=window, frequency=5.0)


def update(task: str, value: float, time: float) -> MetricUpdate:
    return MetricUpdate("PACE", "W", task, "task", (task,), value, time)


class TestTick:
    def _stage(self, window: int) -> DecisionStage:
        stage = DecisionStage()
        stage.add_policy(policy("P", window))
        for i in range(N):
            task = task_name(i)
            stage.apply_policy(PolicyApplication("P", "W", (task,), assess_task=task))
        return stage

    def test_tick_evaluates_only_runtimes_with_pending_values(self, monkeypatch):
        stage = self._stage(window=1)
        evaluated = count_calls(monkeypatch, PolicyRuntime, "evaluate")
        assert stage.tick(0.0) == [] and evaluated == []

        # Out of creation order on purpose: suggestions come back in it.
        stage.ingest([update("T400", 50.0, 1.0), update("T3", 50.0, 1.0),
                      update("T77", 1.0, 1.0)])
        suggestions = stage.tick(5.0)
        assert [rt.application.assess_task for rt in evaluated] == ["T3", "T77", "T400"]
        assert [s.target for s in suggestions] == ["T3", "T400"]

        del evaluated[:]
        assert stage.tick(10.0) == [] and evaluated == []  # values consumed once

    def test_pending_values_wait_for_their_frequency_boundary(self, monkeypatch):
        stage = self._stage(window=1)
        stage.ingest([update("T3", 50.0, 1.0)])
        assert len(stage.tick(5.0)) == 1
        stage.ingest([update("T3", 60.0, 6.0)])
        evaluated = count_calls(monkeypatch, PolicyRuntime, "evaluate")
        assert stage.tick(7.0) == []  # same 5 s bucket: asked, not due
        assert len(stage.tick(10.0)) == 1
        assert len(evaluated) == 2
        assert stage.tick(15.0) == [] and len(evaluated) == 2

    def test_windowed_runtime_with_history_is_evaluated_on_every_due_tick(self, monkeypatch):
        """§4.4: the window stays in violation across ticks with no fresh data."""
        stage = self._stage(window=10)
        stage.ingest([update("T7", 50.0, 1.0)])
        evaluated = count_calls(monkeypatch, PolicyRuntime, "evaluate")
        for now in (5.0, 10.0, 15.0):
            assert [s.target for s in stage.tick(now)] == ["T7"]
        assert [rt.application.assess_task for rt in evaluated] == ["T7"] * 3

        stage.on_task_restart("T7")  # history cleared: nothing left to assess
        del evaluated[:]
        assert stage.tick(20.0) == [] and evaluated == []


PAPER_RUNS = {
    "xgc": run_xgc_experiment,
    "gray_scott": run_gray_scott_experiment,
    "lammps": run_lammps_experiment,
}


class TestWaitingQueueRetry:
    """A parked task is retried when a release, a node-health change or a
    quarantine expiry could place it — not on every tick.  Retrying every
    tick built 5 714 shadow states for these 32 plans."""

    @pytest.mark.parametrize("scenario, machine, plans", [
        ("xgc", "summit", 6),
        ("xgc", "deepthought2", 6),
        ("gray_scott", "summit", 5),
        ("gray_scott", "deepthought2", 13),
        ("lammps", "summit", 1),
        ("lammps", "deepthought2", 1),
    ])
    def test_shadow_builds_stay_within_twice_the_plans(
        self, monkeypatch, scenario, machine, plans
    ):
        shadows = count_calls(monkeypatch, _Shadow, "__init__")
        result = PAPER_RUNS[scenario](machine, seed=1)
        assert len(result.plans) == plans
        assert len(shadows) <= 2 * plans
