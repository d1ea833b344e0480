"""One task's event must not touch the other tasks' state.

Count-based (never wall-clock) checks that the launch -> Monitor ->
Decision path visits only what an event concerns: a task start reaches
that task's bindings, an idle sensor round polls nothing, a tick
evaluates only policies with something to assess and only when they are
due, an idle service tick costs the same whatever N, a DISKSCAN poll looks
at the files created since the last one, a publishing step reads its own
producer's consumers, an idle Arbitration tick re-examines its waiting
queue only when the answer could differ, a task start builds no random
stream its task never draws from, a single-rank step builds one sample, and
an unsignalled, unblocked step runs no sub-generator and builds no
``StreamStep`` that no reader reads, a consumer whose input is staged
never enters the input wait, a sleep costs one heap entry and one
resume, a barrier where only the next tick moved writes that unit and
signs nothing whatever the alert history holds, and a snapshot's server and plan
entries are the same whatever the run has produced.  Each count is what
a scan over all N entries — or a retry on every tick, or a per-task
object nothing uses — would get wrong.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from repro.apps import ConstantModel, CouplingRegistry, IterativeApp
from repro.apps import base as app_base
from repro.apps.base import TaskContext
from repro.campaign import CampaignService, TenantCell, TenantSpec, TenantsSpec
from repro.cluster import Allocation, summit
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
    FileReadSource,
    SensorInstance,
    SensorSpec,
    StreamSource,
)
from repro.core.sensors.preprocess import preprocess_value
from repro.core.sensors.sources import DataSource
from repro.errors import SensorError
from repro.fabric import DegradedModeController, FabricLink, NetworkSpec
from repro.journal import JournalSpec, read_journal
from repro.journal.delta import UnitCache
from repro.observability import HealthEngine, ObservabilitySpec, SloSpec
from repro.observability.health import log_alert
from repro.observability.slo import HealthAlert
from repro.resilience import ResilienceSpec
from repro.experiments import (
    run_gray_scott_experiment,
    run_lammps_experiment,
    run_xgc_experiment,
)
from repro.experiments.synthetic import SyntheticConfig, run_synthetic_experiment
from repro.profiler import instrument
from repro.runtime import DyflowOrchestrator, RuntimeOptions
from repro.sim import RngRegistry, SimEngine
from repro.staging import DataHub, Sample, SimFilesystem, stream
from repro.staging.stream import StreamChannel, StreamReader, StreamStep
from repro.telemetry import TelemetrySpec
from repro.wms import Savanna, TaskSpec, WorkflowSpec

N = 500
PACE = SensorSpec("PACE", "TAUADIOS2")
STATUS = SensorSpec("STATUS", "ERRORSTATUS")


class SpySource(DataSource):
    def __init__(self) -> None:
        self.reconnects = 0

    def watch(self, wake, token) -> None:
        pass  # never has data, so never wakes

    def unwatch(self, wake) -> None:
        pass

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

    def test_an_idle_round_polls_nothing(self, monkeypatch):
        """Streams, exit statuses, a read file and a disk scan: with no
        change since the last round, the round polls none of them, and an
        unrelated file write wakes none of them."""
        hub = DataHub()
        client = self._client(hub)
        fs = hub.filesystem
        status = ErrorStatusSource(fs, "status/W/T0", "W", "T0")
        client.add_binding(SensorInstance(STATUS, "W", "T0", status))
        fs.write("io/T1.json", {"err": 0.5}, mtime=0.0)
        read = FileReadSource(fs, "io/T1.json", "W", "T1", "err")
        client.add_binding(SensorInstance(SensorSpec("ERR", "FILEREAD"), "W", "T1", read))
        scan = DiskScanSource(fs, "out/T2.out.*", "W", "T2")
        client.add_binding(SensorInstance(SensorSpec("SCAN", "DISKSCAN"), "W", "T2", scan))
        client.collect(0.0)
        polls = count_calls(monkeypatch, SensorInstance, "poll")
        fs.write("out/T3.out.0", None, 1.0, step=0)  # matches no bound pattern
        assert client.collect(1.0) == []
        assert polls == []

        fs.append_record("status/W/T0", {"code": 1, "time": 1.5}, mtime=1.5)
        fs.write("out/T2.out.0", None, 1.5, step=0)
        assert len(client.collect(2.0)) == 2
        assert [inst.source for inst in polls] == [status, scan]

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


def cell_workflow(steps: int) -> WorkflowSpec:
    """A campaign cell: eight independent one-rank tasks."""
    return WorkflowSpec(f"cell-{steps}", [
        TaskSpec(f"T{k}", lambda: IterativeApp(ConstantModel(1.0), total_steps=steps), nprocs=1)
        for k in range(8)])


CELL_STEPS = 20


def run_campaign_cell() -> None:
    svc = CampaignService(TenantsSpec(nodes=1, cores_per_node=8, tenants=(TenantSpec("a"),)))
    svc.submit(TenantCell("a", cell_workflow, params={"steps": CELL_STEPS}, nprocs=8))
    [record] = svc.run_pending()
    assert record["status"] == "completed"


def task_ctx(eng, hub, coupling, task, tight_parents=()) -> TaskContext:
    return TaskContext(
        engine=eng, hub=hub, coupling=coupling, perf=MachinePerf(), rngs=RngRegistry(0),
        rng_name=f"t:{task}", workflow_id="WF", task=task, incarnation=0, nprocs=1,
        rank_nodes={0: "n0"}, tight_parents=list(tight_parents),
    )


class TestTaskStartAndStep:
    """The synthetic tasks draw nothing (no step noise, no rank jitter, one
    rank): a start owes them no RNG stream, and a step owes them one
    ``Sample`` and no sort.  An unsignalled step that is not held back
    runs no sub-generator, and a published step becomes a ``StreamStep``
    only when a reader reads it."""

    def test_no_stream_per_start_and_one_sample_per_step(self, monkeypatch):
        default_rng, streams = np.random.default_rng, []

        def spy_rng(*args, **kwargs):
            streams.append(args)
            return default_rng(*args, **kwargs)

        built: list = []

        def spy_sample(*args, **kwargs):
            built.append(args)
            return Sample(*args, **kwargs)

        sorts: list = []

        def spy_sorted(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy_rng)
        monkeypatch.setattr(instrument, "Sample", spy_sample)
        for module in (app_base, instrument):  # the _emit_pace path
            monkeypatch.setattr(module, "sorted", spy_sorted, raising=False)
        steps = count_calls(monkeypatch, IterativeApp, "_emit_pace")

        result = run_synthetic_experiment(N)

        assert len(steps) == N * SyntheticConfig().total_steps
        assert len(built) == len(steps)
        assert sorts == []
        assert streams == []
        assert not any(name.startswith("task:")
                       for name in result.launcher.rng.state_dict()["streams"])

    @pytest.mark.parametrize("run, steps", [
        (lambda: run_synthetic_experiment(N), N * SyntheticConfig().total_steps),
        (run_campaign_cell, 8 * CELL_STEPS),
    ], ids=["synthetic", "campaign_cell"])
    def test_a_step_builds_no_sub_generator_and_no_unread_stream_step(
        self, monkeypatch, run, steps
    ):
        built: list[bool] = []  # one entry per StreamStep: built inside put?
        in_put: list = []

        def spy_stream_step(*args, **kwargs):
            built.append(bool(in_put))
            return StreamStep(*args, **kwargs)

        put, try_next = StreamChannel.put, StreamReader.try_next

        def spy_put(channel, data, time):
            assert not channel.observers  # no telemetry in either run
            in_put.append(channel)
            try:
                return put(channel, data, time)
            finally:
                in_put.pop()

        returned: list = []

        def spy_try_next(reader):
            record = try_next(reader)
            if record is not None:
                returned.append(record)
            return record

        monkeypatch.setattr(stream, "StreamStep", spy_stream_step)
        monkeypatch.setattr(StreamChannel, "put", spy_put)
        monkeypatch.setattr(StreamReader, "try_next", spy_try_next)
        interrupted = count_calls(monkeypatch, IterativeApp, "_finish_interrupted_step")
        emitted = count_calls(monkeypatch, IterativeApp, "_emit_pace")

        run()

        assert len(emitted) == steps
        assert interrupted == []
        assert built.count(True) == 0  # put builds nothing nobody reads
        assert len(built) == len(returned)  # one per record a reader got

    def test_a_consumer_whose_input_is_staged_never_enters_the_wait(self, monkeypatch):
        waits = count_calls(monkeypatch, IterativeApp, "_await_input")
        eng, hub, coupling = SimEngine(), DataHub(), CouplingRegistry()
        producer = eng.process(
            IterativeApp(ConstantModel(1.0), total_steps=5).run(task_ctx(eng, hub, coupling, "P"))
        )
        eng.run()  # all five steps staged, then end of stream
        cctx = task_ctx(eng, hub, coupling, "C", tight_parents=["P"])
        consumer = eng.process(IterativeApp(ConstantModel(1.0)).run(cctx))
        eng.run()
        assert producer.value == consumer.value == 0
        assert cctx.notes["last_step"] == 5 and cctx.notes["completed"]
        assert waits == []

    def test_a_waiting_consumer_re_polls_every_poll_interval_from_its_first_check(
        self, monkeypatch
    ):
        waits = count_calls(monkeypatch, IterativeApp, "_await_input")
        eng, hub, coupling = SimEngine(), DataHub(), CouplingRegistry()
        checks: list[float] = []
        try_next = StreamReader.try_next

        def spy_try_next(reader):
            checks.append(eng.now)
            return try_next(reader)

        monkeypatch.setattr(StreamReader, "try_next", spy_try_next)
        cctx = task_ctx(eng, hub, coupling, "C", tight_parents=["P"])
        eng.run(until=0.1)
        eng.process(IterativeApp(ConstantModel(1.0), total_steps=1).run(cctx))
        eng.call_at(0.7, lambda: hub.channel("data-WF-P").put({"step": 0}, eng.now))
        eng.call_at(0.8, hub.channel("data-WF-P").close)
        eng.run()
        assert checks == [0.1, 0.1 + 0.25, 0.1 + 0.25 + 0.25, 0.1 + 0.25 + 0.25 + 0.25]
        assert len(waits) == 1 and cctx.notes["last_step"] == 1


class TestSleep:
    """A sleep is one heap entry and one resume: the process body, the
    ``timeout`` call that pushes the entry, and the routine that resumes
    the generator when it pops — no event constructor, no queue-slot
    object, no callback trampoline."""

    @staticmethod
    def _python_calls(sleeps: int) -> Counter:
        eng = SimEngine()

        def sleeper():
            for _ in range(sleeps):
                yield eng.timeout(1.0)

        eng.process(sleeper())
        calls: Counter = Counter()

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                calls[code.co_filename, code.co_firstlineno, code.co_name] += 1

        sys.setprofile(profile)
        try:
            eng.run()
        finally:
            sys.setprofile(None)
        return calls

    def test_a_sleep_costs_at_most_three_python_calls(self):
        # The difference of two runs cancels the start and finish of the process.
        per_sleep = self._python_calls(2000)
        per_sleep.subtract(self._python_calls(1000))
        per_sleep = +per_sleep
        assert sum(per_sleep.values()) <= 3 * 1000, per_sleep


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


class TestIdleTick:
    """A service tick with no new data, no policy due and an empty waiting
    queue makes the same Python calls whatever the number of policies and
    file sensors: the Monitor round finds nothing woken, no frequency
    bucket turned for the parked policies, and Arbitration has nothing to
    arbitrate.  Polling the file sensors every round, or asking every
    policy with history whether it is due, would grow with N."""

    @staticmethod
    def _idle_tick_calls(n: int) -> Counter:
        machine = summit(2)
        alloc = Allocation("a0", machine, machine.nodes, walltime_limit=1e9)
        task = TaskSpec("T", lambda: IterativeApp(ConstantModel(1.0), total_steps=4), nprocs=2)
        engine = SimEngine()
        launcher = Savanna(engine, WorkflowSpec("W", [task], []), alloc, rng=RngRegistry(1))
        orch = DyflowOrchestrator(launcher)  # the workflow is never launched
        fs = launcher.hub.filesystem
        orch.add_sensor(SensorSpec("OUT", "DISKSCAN"))
        orch.add_sensor(SensorSpec("STATUS", "ERRORSTATUS"))
        for i in range(n):
            fs.write(f"io/{i}.json", {"err": 1.0}, mtime=0.0)
            orch.add_sensor(SensorSpec(f"ERR{i}", "FILEREAD"))
            orch.monitor_task("T", f"ERR{i}", info_source=f"io/{i}.json", var="err")
            orch.monitor_task("T", "STATUS", info_source=f"status/{i}")
            if i % 10 == 0:  # each first scan reads the whole creation log
                orch.monitor_task("T", "OUT", info_source=f"out/{i}.*")
            # Windowed: after its first evaluation it can always answer.
            orch.add_policy(PolicySpec(f"P{i}", f"ERR{i}", "GT", 1e9, ActionType.ADDCPU,
                                       history_window=3, frequency=5.0))
            orch.apply_policy(PolicyApplication(f"P{i}", "W", ("T",), assess_task="T"))
        orch.start()
        engine.run(until=2.5)  # read at 0, delivered at 0.2, evaluated at 1
        assert sum(rt.fired for rt in orch.decision.runtimes) == 0
        assert all(rt.can_answer() for rt in orch.decision.runtimes)
        calls: Counter = Counter()

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                calls[code.co_filename, code.co_firstlineno, code.co_name] += 1

        sys.setprofile(profile)
        try:
            engine.run(until=3.5)  # the tick at 3: next bucket turns at 5
        finally:
            sys.setprofile(None)
        assert orch.ticks == 4
        return calls

    def test_an_idle_tick_costs_the_same_for_10_and_1000_policies(self):
        small, large = self._idle_tick_calls(10), self._idle_tick_calls(1000)
        assert large == small, large - small


class TestBarrier:
    """A barrier where only ``next_tick`` moved writes that one unit and
    builds nothing else: no link, health or degraded-mode state, with 10
    and with 1 000 health alerts in the run.  Finding the change by
    signing the controller state cost 27 signatures a tick; nothing can
    sign one now (``test_one_path_structure.py::test_the_runtime_signs_no_state``)."""

    @staticmethod
    def _quiet_barrier(tmp_path, alerts: int) -> tuple[int, int, int, list]:
        machine = summit(2)
        alloc = Allocation("a0", machine, machine.nodes, walltime_limit=1e9)
        task = TaskSpec("T", lambda: IterativeApp(ConstantModel(1.0), total_steps=4), nprocs=2)
        engine = SimEngine()
        launcher = Savanna(engine, WorkflowSpec("W", [task], []), alloc, rng=RngRegistry(1))
        journal = JournalSpec(dir=str(tmp_path / f"journal-{alerts}"), fsync="off")
        orch = DyflowOrchestrator(launcher, options=RuntimeOptions(
            journal=journal,
            observability=ObservabilitySpec(eval_every=1e6),  # evaluates at 0 only
            # One link; degraded mode evaluates every tick and is never stale.
            resilience=ResilienceSpec(network=NetworkSpec(stale_after=20.0)),
        ))
        orch.start()  # the workflow is never launched: no data, no plan
        for i in range(alerts):
            alert = HealthAlert(float(i), "slo:x.p95", "firing", "warning", 1.0, 0.0, "")
            log_alert(launcher.log, orch.tracer, alert)
        engine.run(until=4.5)  # the fresh streak saturates by the barrier at 3
        with pytest.MonkeyPatch.context() as patch:
            links = count_calls(patch, FabricLink, "state_dict")
            healths = count_calls(patch, HealthEngine, "state_dict")
            degraded = count_calls(patch, DegradedModeController, "state_dict")
            engine.run(until=5.5)  # the barrier at 5
        assert orch.ticks == 6
        orch.stop()
        barrier = [r for r in read_journal(journal.dir).records if r["kind"] == "barrier"][-1]
        paths = [path for path, _ in barrier["delta"]]
        return len(links), len(healths), len(degraded), paths

    def test_a_quiet_barrier_signs_nothing_whatever_the_alerts(self, tmp_path):
        small = self._quiet_barrier(tmp_path, 10)
        large = self._quiet_barrier(tmp_path, 1000)
        assert small == large == (0, 0, 0, [["next_tick"]])


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


def shape(value):
    """*value* with every number written as 0: counters and clock readings
    grow in digits, not in count."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [shape(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return 0
    return value


class TestSnapshot:
    """A snapshot holds controller state, not the run's output: its
    ``server`` and ``plans`` entries are the same after 100 ticks as after
    1 000, though the metric history and the finished plans grow every
    few ticks.  Re-encoding them in every snapshot made the snapshots'
    total bytes grow with the square of the run."""

    def test_server_and_plans_encode_alike_after_100_and_1000_ticks(self, tmp_path):
        machine = summit(1)
        alloc = Allocation("a0", machine, machine.nodes, walltime_limit=1e9)
        task = TaskSpec("T", lambda: IterativeApp(ConstantModel(1.0), total_steps=10_000), nprocs=2)
        engine = SimEngine()
        launcher = Savanna(engine, WorkflowSpec("W", [task], []), alloc, rng=RngRegistry(1))
        journal = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
        orch = DyflowOrchestrator(launcher, warmup=0.0, settle=5.0, record_history=True,
                                  options=RuntimeOptions(journal=journal))
        orch.add_sensor(SensorSpec("V", "FILEREAD"))
        orch.monitor_task("T", "V", info_source="io/v.json", var="v")
        # Every evaluation suggests an in-place reconfiguration: one short plan each.
        orch.add_policy(PolicySpec("P", "V", "GT", -1.0, ActionType.RECONFIG, frequency=10.0))
        orch.apply_policy(PolicyApplication("P", "W", ("T",), assess_task="T"))
        orch.start()
        launcher.launch_workflow()
        fs = launcher.hub.filesystem
        entries = {}
        for tick in range(1000):
            fs.write("io/v.json", {"v": float(tick)}, mtime=float(tick))
            engine.run(until=tick + 0.5)
            if orch.ticks in (100, 1000):
                state = orch._snapshot_state(engine.now)
                entries[orch.ticks] = [state["server"], state["plans"]]
        orch.stop()
        assert len(orch.server.history) > 900 and len(orch.plans) > 80
        small, large = (json.dumps(shape(entries[n])) for n in (100, 1000))
        assert len(small) == len(large), (len(small), len(large))

    def test_the_health_entry_encodes_alike_after_10_and_100_alert_transitions(self, tmp_path):
        """The alert history is the run log's, not the health engine's: the
        barrier, and the snapshot that embeds it, carry the evaluator state
        alone — the same bytes after 10 alert transitions as after 100."""
        machine = summit(1)
        alloc = Allocation("a0", machine, machine.nodes, walltime_limit=1e9)
        task = TaskSpec("T", lambda: IterativeApp(ConstantModel(1.0), total_steps=10_000), nprocs=2)
        engine = SimEngine()
        launcher = Savanna(engine, WorkflowSpec("W", [task], []), alloc, rng=RngRegistry(1))
        slo = SloSpec(metric="test.flip", stat="value", op="LT", threshold=0.5)
        orch = DyflowOrchestrator(launcher, options=RuntimeOptions(
            telemetry=TelemetrySpec(),
            observability=ObservabilitySpec(eval_every=1.0, slos=(slo,)),
            journal=JournalSpec(dir=str(tmp_path / "journal"), fsync="off"),
        ))
        orch.start()
        launcher.launch_workflow()
        flip = orch.tracer.metrics.gauge("test.flip")
        entries = {}
        for tick in range(1, 101):
            flip.set(float(tick % 2))  # every evaluation fires or clears
            engine.run(until=tick + 0.5)
            transitions = len(orch.health.alerts)
            if transitions in (10, 100):
                entries.setdefault(transitions, orch._barrier_units(UnitCache()).state()["health"])
        orch.stop()
        assert sorted(entries) == [10, 100]
        small, large = (json.dumps(shape(entries[n])) for n in (10, 100))
        assert small == large
