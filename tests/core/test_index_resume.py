"""The Monitor and Decision indexes are derived state: never journaled,
always rebuilt.

``MonitorClient`` (task -> bindings, per-sensor constants) and
``DecisionStage`` (the set of runtimes that can answer) keep lookup
structures beside their journaled state.  A snapshot must not grow a key
for them, and a fresh instance that loads a snapshot must behave exactly
like the instance that wrote it — including when the snapshot is taken
at the two instants where a stale index would show: policy values
pending but not yet due, and a stream step published after the last
poll.
"""

import json

import pytest

from repro.cluster.machine import MachinePerf
from repro.core import (
    ActionType,
    DecisionStage,
    MetricUpdate,
    MonitorClient,
    PolicyApplication,
    PolicySpec,
)
from repro.core.sensors import DiskScanSource, SensorInstance, SensorSpec, StreamSource
from repro.errors import JournalError
from repro.staging import DataHub, Sample

TASKS = ("A", "B", "C")
PACE = SensorSpec("PACE", "TAUADIOS2")
NSTEPS = SensorSpec("NSTEPS", "DISKSCAN")


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


# -- Monitor ------------------------------------------------------------------ #
def make_client(hub: DataHub) -> MonitorClient:
    client = MonitorClient("c0", MachinePerf())
    for task in TASKS:
        source = StreamSource(hub, f"tau-W-{task}", "W", task, var="looptime")
        client.add_binding(SensorInstance(PACE, "W", task, source))
    return client


def publish(hub: DataHub, task: str, step: int, value: float, time: float) -> None:
    hub.channel(f"tau-W-{task}").put(
        [Sample(time=time, workflow_id="W", task=task, rank=0, node_id="n0",
                var="looptime", value=value, step=step)],
        time,
    )


def envelopes(client: MonitorClient, now: float) -> list:
    return [(lag, env.to_json()) for lag, env in client.collect(now)]


def recorded_monitor_run() -> tuple[DataHub, MonitorClient]:
    """Connect, read two steps, leave C unread and B restarted."""
    hub = DataHub()
    client = make_client(hub)
    client.collect(0.0)
    publish(hub, "A", 0, 1.5, 1.0)
    publish(hub, "B", 0, 2.5, 1.0)
    client.collect(1.0)
    client.on_task_restart("B")
    publish(hub, "C", 0, 3.5, 2.0)  # after the last poll: cursor lags the channel
    return hub, client


# -- Decision ----------------------------------------------------------------- #
def make_stage() -> DecisionStage:
    stage = DecisionStage()
    stage.add_policy(PolicySpec("NOW", "PACE", "GT", 36.0, ActionType.ADDCPU,
                                history_window=1, frequency=5.0))
    stage.add_policy(PolicySpec("AVG3", "PACE", "GT", 36.0, ActionType.RMCPU,
                                history_window=3, frequency=5.0))
    for task in TASKS:
        stage.apply_policy(PolicyApplication("NOW", "W", (task,), assess_task=task))
    stage.apply_policy(PolicyApplication("AVG3", "W", ("A",), assess_task="A"))
    return stage


def update(task: str, value: float, time: float) -> MetricUpdate:
    return MetricUpdate("PACE", "W", task, "task", (task,), value, time)


def recorded_decision_run() -> DecisionStage:
    """B holds a value that arrived inside an already-evaluated 5 s bucket."""
    stage = make_stage()
    stage.ingest([update("A", 50.0, 1.0), update("B", 50.0, 1.0)])
    stage.tick(5.0)
    stage.ingest([update("B", 60.0, 6.0)])
    stage.tick(7.0)  # NOW/B was evaluated at 5.0: pending, not due before 10.0
    return stage


# -- what the parent commit journaled for the same runs ------------------------ #
# (Decision's per-reason ``outcome_counts`` has since replaced its
# ``suggestions_gated`` counter.)
MONITOR_STATE = (
    '{"cursors": [{"connected": true, "cursor": 1, "missed": 0}, '
    '{"connected": true, "cursor": 1, "missed": 0}, '
    '{"connected": true, "cursor": 0, "missed": 0}], '
    '"seq": {"c0/PACE": 1}}'
)
DECISION_STATE = (
    '{"degraded": false, "outcome_counts": {}, "runtimes": ['
    '{"fired": 1, "last_eval": 5.0, "last_time": 1.0, "pending": [], "window": [50.0]}, '
    '{"fired": 1, "last_eval": 5.0, "last_time": 6.0, "pending": [[60.0, 6.0]], '
    '"window": [60.0]}, '
    '{"fired": 0, "last_eval": null, "last_time": 0.0, "pending": [], "window": []}, '
    '{"fired": 1, "last_eval": 5.0, "last_time": 1.0, "pending": [], "window": [50.0]}], '
    '"updates_matched": 4, "updates_seen": 3}'
)


def test_state_dicts_are_what_the_parent_commit_journaled():
    _hub, client = recorded_monitor_run()
    assert canon(client.state_dict()) == MONITOR_STATE
    assert canon(recorded_decision_run().state_dict()) == DECISION_STATE
    # Older journals carry the retired sequence tracker's empty "seq" key,
    # and a "suggestions_gated" count where "outcome_counts" is now.
    state = json.loads(DECISION_STATE)
    del state["outcome_counts"]
    older = make_stage()
    older.load_state_dict({**state, "seq": {}, "suggestions_gated": 0})
    assert canon(older.state_dict()) == DECISION_STATE


def test_client_resumes_with_a_step_published_after_its_last_poll():
    hub, live = recorded_monitor_run()
    resumed = make_client(hub)
    resumed.load_state_dict(json.loads(canon(live.state_dict())))

    script = [
        (3.0, [("A", 1, 1.6)]),
        (4.0, []),
        (5.0, [("B", 1, 2.6), ("C", 1, 3.6)]),
    ]
    for now, steps in script:
        for task, step, value in steps:
            publish(hub, task, step, value, now)
        got = envelopes(resumed, now)
        assert got == envelopes(live, now)
        assert canon(resumed.state_dict()) == canon(live.state_dict())
        if now == 3.0:
            # C's step from before the snapshot is in the first round after it.
            tasks = [u["task"] for _lag, env in got
                     for u in json.loads(env)["payload"]["updates"]]
            assert tasks == ["A", "C"]
    resumed.on_task_restart("B")  # the task index was rebuilt at bind time
    live.on_task_restart("B")
    assert canon(resumed.state_dict()) == canon(live.state_dict())


def test_stage_resumes_with_pending_values_that_are_not_due():
    live = recorded_decision_run()
    resumed = make_stage()
    resumed.load_state_dict(json.loads(canon(live.state_dict())))

    script = [
        (8.0, []),                      # still inside B's evaluated bucket
        (10.0, [update("C", 1.0, 9.0)]),  # B's pending 60.0 comes due; AVG3 re-fires
        (15.0, []),                     # only the windowed policy still answers
    ]
    for now, updates in script:
        live.ingest(updates)
        resumed.ingest(updates)
        got = resumed.tick(now)
        assert got == live.tick(now)
        assert canon(resumed.state_dict()) == canon(live.state_dict())
        if now == 10.0:
            assert [(s.policy_id, s.target, s.metric_value) for s in got] == [
                ("NOW", "B", 60.0), ("AVG3", "A", 50.0),
            ]
        if now == 15.0:
            assert [(s.policy_id, s.target) for s in got] == [("AVG3", "A")]

    # Loading an idle snapshot over a busy stage forgets the busy marks.
    busy = recorded_decision_run()
    busy.load_state_dict(make_stage().state_dict())
    assert busy.tick(10.0) == []
    assert canon(busy.state_dict()) == canon(make_stage().state_dict())


# -- a DISKSCAN binding: the cursor is a position in the creation log ---------- #
def make_diskscan_client(hub: DataHub) -> MonitorClient:
    client = MonitorClient("c0", MachinePerf())
    for task in ("XGC1", "XGCA"):
        source = DiskScanSource(hub.filesystem, f"out/W/{task}.out.*", "W", task)
        client.add_binding(SensorInstance(NSTEPS, "W", task, source))
    return client


def write_step(hub: DataHub, task: str, step: int, time: float) -> None:
    hub.filesystem.write(f"out/W/{task}.out.{step}", None, time, step=step)


def recorded_diskscan_run(steps: int) -> tuple[DataHub, MonitorClient]:
    """*steps* XGC1 files reported, one XGCA file created after the last poll."""
    hub = DataHub()
    client = make_diskscan_client(hub)
    for step in range(steps):
        write_step(hub, "XGC1", step, float(step))
    client.collect(float(steps))
    write_step(hub, "XGCA", 0, steps + 1.0)
    return hub, client


def test_diskscan_state_is_a_log_position_not_the_files_seen():
    _hub, few = recorded_diskscan_run(steps=3)
    _hub, many = recorded_diskscan_run(steps=300)
    assert canon(few.state_dict()) == (
        '{"cursors": [{"pos": 3}, {"pos": 3}], "seq": {"c0/NSTEPS": 1}}'
    )
    # A hundred times the files: the same state but for the digits of the position.
    assert canon(many.state_dict()) == (
        '{"cursors": [{"pos": 300}, {"pos": 300}], "seq": {"c0/NSTEPS": 1}}'
    )


def test_client_resumes_a_diskscan_with_a_file_created_after_its_last_poll():
    hub, live = recorded_diskscan_run(steps=3)
    resumed = make_diskscan_client(hub)
    resumed.load_state_dict(json.loads(canon(live.state_dict())))

    script = [
        (5.0, [("XGC1", 3)]),
        (6.0, []),
        (7.0, [("XGCA", 1), ("XGC1", 4), ("XGC1", 1)]),  # XGC1.out.1 is replaced
    ]
    for now, files in script:
        for task, step in files:
            write_step(hub, task, step, now)
        got = envelopes(resumed, now)
        assert got == envelopes(live, now)
        assert canon(resumed.state_dict()) == canon(live.state_dict())
        if now == 5.0:
            # XGCA's file from before the snapshot is in the first round after it,
            # and none of the three files reported before it comes back.
            updates = [(u["task"], u["value"]) for _lag, env in got
                       for u in json.loads(env)["payload"]["updates"]]
            assert updates == [("XGC1", 4.0), ("XGCA", 1.0)]
        if now == 6.0:
            assert got == []
    # Seven paths were created; replacing XGC1.out.1 logged nothing.
    assert canon(live.state_dict()) == (
        '{"cursors": [{"pos": 7}, {"pos": 7}], "seq": {"c0/NSTEPS": 3}}'
    )


def test_a_journaled_seen_list_is_rejected_not_rescanned():
    hub, live = recorded_diskscan_run(steps=3)
    state = live.state_dict()
    state["cursors"][0] = {"seen": ["out/W/XGC1.out.0", "out/W/XGC1.out.1"]}
    with pytest.raises(JournalError, match="creation-log position"):
        make_diskscan_client(hub).load_state_dict(state)
