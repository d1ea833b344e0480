"""Checkpoint-restart for the wall-clock threaded driver.

A restarted :class:`ThreadedDyflow` pointed at its predecessor's journal
relaunches each mini-app at the step after its last ``task-checkpoint``
instead of recomputing from zero, and skips tasks that already finished.
Its controller comes back as the simulated driver's does: a START parked
in Arbitration's waiting queue at the crash still starts, and a resume
rebuilds Arbitration, Decision and every Monitor client to the state of
the run it took over.
"""

import time
from types import SimpleNamespace

from repro.core import ActionType, PolicyApplication, PolicySpec, SensorSpec
from repro.core.actions import Reason, SuggestedAction
from repro.journal import JournalSpec, read_journal
from repro.runtime import RuntimeOptions, threaded
from repro.runtime.threaded import LiveTaskSpec, ThreadedDyflow

TOTAL_STEPS = 40


def make_runner(steps_sink, journal=None):
    spec = LiveTaskSpec(
        "T", lambda s, w: (steps_sink.append(s), time.sleep(0.005)),
        total_steps=TOTAL_STEPS,
    )
    return ThreadedDyflow(
        "LIVE", [spec], poll_interval=0.05, warmup=0.2, settle=0.2,
        options=RuntimeOptions(journal=journal),
    )


def last_checkpoint(journal_dir, task="T"):
    """The step *task* resumes at: its last ``task-checkpoint`` record, or
    the last barrier's, when a snapshot compacted the records away."""
    state = read_journal(journal_dir)
    steps = [r["next_step"] for r in state.records if r["kind"] == "task-checkpoint"
             and r["task"] == task]
    if steps:
        return max(steps)
    barrier = state.barrier_state
    return barrier["tasks"][task][0] if barrier is not None else 0


def test_restart_resumes_at_the_journaled_step(tmp_path):
    # fsync="always": each checkpoint must be durable the moment the
    # step finishes, so the poll below sees progress as it happens.
    spec = JournalSpec(dir=str(tmp_path / "wal"), fsync="always")

    first_steps = []
    first = make_runner(first_steps, journal=spec)
    first.start()
    deadline = time.perf_counter() + 15.0
    while last_checkpoint(spec.dir) < 5:  # let it make real progress
        assert time.perf_counter() < deadline, "no checkpoints appeared"
        time.sleep(0.02)
    first.stop()  # the "crash": mini-app dies mid-run, checkpoints survive

    resume_at = last_checkpoint(spec.dir)
    assert 0 < resume_at < TOTAL_STEPS
    assert first_steps[0] == 0

    second_steps = []
    second = make_runner(second_steps, journal=None)
    second.resume_from(spec.dir)
    second.start()
    assert second.wait_until_done(timeout=15.0)
    second.stop()

    # No recompute-from-zero: the relaunch starts exactly where the
    # checkpoints left off and runs through to completion.
    assert second_steps[0] == resume_at
    assert second_steps[-1] == TOTAL_STEPS - 1
    assert second_steps == list(range(resume_at, TOTAL_STEPS))
    # Incarnation numbering continued past the journaled first life.
    assert second.launcher.record("T").incarnations == 2


def test_completed_tasks_are_not_relaunched(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "wal"), fsync="off")
    steps = []
    runner = make_runner(steps, journal=spec)
    runner.start()
    assert runner.wait_until_done(timeout=15.0)
    runner.stop()
    assert len(steps) == TOTAL_STEPS

    again = []
    third = make_runner(again, journal=None)
    third.resume_from(spec.dir)
    third.start()
    assert third.wait_until_done(timeout=5.0)
    third.stop()
    assert again == []  # nothing re-ran
    assert third.launcher.record("T").current is None  # not even launched


def test_epoch_advances_per_takeover(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "wal"), fsync="off")
    runner = make_runner([], journal=spec)
    runner.start()
    assert runner.wait_until_done(timeout=15.0)
    runner.stop()
    second = make_runner([], journal=None)
    second.resume_from(spec.dir)
    second.start()
    second.stop()
    assert read_journal(spec.dir).epoch == 2


def test_a_resumed_runner_keeps_the_journal_spec(tmp_path):
    # No snapshot within the run: the meta record holds the spec.
    spec = JournalSpec(dir=str(tmp_path / "wal"), fsync="off", batch_every=7,
                       snapshot_every=1000)
    runner = make_runner([], journal=spec)
    runner.start()
    assert runner.wait_until_done(timeout=15.0)
    runner.stop()
    second = make_runner([], journal=None)
    second.resume_from(spec.dir)
    second.start()
    second.stop()
    assert second._journal.spec == spec


def parked_start_runner(steps_b, journal=None):
    """B holds both cores; A has no steps left, so it never launches."""
    tasks = [LiveTaskSpec("A", lambda s, w: None, nworkers=1, total_steps=0),
             LiveTaskSpec("B", lambda s, w: time.sleep(0.005), nworkers=2, total_steps=steps_b)]
    return ThreadedDyflow("LIVE", tasks, poll_interval=0.02, warmup=0.0, settle=0.0,
                          max_workers_total=2, options=RuntimeOptions(journal=journal))


def wait_for(predicate, timeout, what):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, what
        time.sleep(0.005)


def journaled_waiting(journal_dir):
    """Arbitration's waiting queue as the journal's last barrier holds it."""
    barrier = read_journal(journal_dir).barrier_state
    return barrier["arbitration"]["waiting"] if barrier is not None else {}


def test_a_start_parked_at_the_crash_starts_after_the_resume(tmp_path):
    # fsync="always": the barrier is on disk the moment it is written.
    spec = JournalSpec(dir=str(tmp_path / "wal"), fsync="always")
    first = parked_start_runner(10_000, journal=spec)
    first.start()
    wait_for(lambda: first.launcher.record("B").is_running, 1.0, "B never ran")
    with first.lock:
        first._hand_off([SuggestedAction("P", ActionType.START, "A", "LIVE")])
    wait_for(lambda: "A" in journaled_waiting(spec.dir), 1.0, "the parked START is not journaled")
    first.stop()  # the crash: the START is still parked, B still holds every core
    assert first.launcher.record("A").history == []

    second = parked_start_runner(last_checkpoint(spec.dir, "B") + 5)
    second.resume_from(spec.dir)
    second.start()
    try:
        # B finishes its last steps, frees both cores, and the waiting
        # START is planned and actuated.
        wait_for(lambda: second.launcher.record("A").history, 1.5,
                 "the parked START was lost in the crash")
    finally:
        second.stop()
    assert second.launcher.record("B").history[0].state.value == "completed"
    assert "A" not in second.arbitration.waiting


def by_hand(monkeypatch, journal_dir, clock, max_workers_total=1, **journal):
    """A runner whose rounds the test drives on a fake clock: no stage
    thread runs, and T, if started, ends at once."""
    monkeypatch.setattr(threaded, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    runner = ThreadedDyflow(
        "LIVE", [LiveTaskSpec("T", lambda s, w: None, nworkers=2, total_steps=0)],
        warmup=0.5, settle=0.5,
        max_workers_total=max_workers_total,  # 1: a START of T parks
        options=RuntimeOptions(journal=JournalSpec(dir=journal_dir, fsync="off", **journal)),
    )
    runner.add_sensor(SensorSpec("V", "FILEREAD"))
    runner.monitor_task("T", "V", info_source="io/v.json", var="v")
    runner.add_policy(PolicySpec("P", "V", "GT", 1.5, ActionType.START, history_window=3))
    runner.apply_policy(PolicyApplication("P", "LIVE", ("T",), assess_task="T"))
    return runner


def controller_state(runner):
    return (runner.arbitration.state_dict(), runner.decision.state_dict(),
            [c.state_dict() for c in runner.clients])


def test_a_resume_rebuilds_the_controller_it_took_over(tmp_path, monkeypatch):
    clock = [0.0]
    journal_dir = str(tmp_path / "wal")
    first = by_hand(monkeypatch, journal_dir, clock)
    first._open_journal(workflow="LIVE")
    first._running = True
    first._begin(first.now())
    fs = first.hub.filesystem
    for t in range(1, 7):
        clock[0] = float(t)
        fs.write("io/v.json", {"v": float(t)}, mtime=float(t))
        first._monitor_round(first.now())
        first._decision_round(first.now())  # the barrier, after the Arbitration round before it
        if len(first._queue):  # one Arbitration round
            first.arbitration.arbitrate(first._queue.get(), first.now())
    clock[0] = 7.0
    first._monitor_round(first.now())
    first._decision_round(first.now())
    assert "T" in first.arbitration.waiting
    first.stop()
    expected = controller_state(first)

    clock[0] = 100.0  # a new process: its clock restarts
    second = by_hand(monkeypatch, journal_dir, clock)
    second.resume_from(journal_dir)
    assert controller_state(second) == expected
    assert second.now() == 7.0  # continues from the last barrier


def test_a_resume_after_a_plan_reports_the_settle_gate(tmp_path, monkeypatch):
    """A snapshot after the executed plan compacts its records away, so the
    resumed runner's run output holds no plan: that a plan executed, which
    tells the settle gate from the warmup, comes back from the barrier."""
    clock = [0.0]
    journal_dir = str(tmp_path / "wal")
    first = by_hand(monkeypatch, journal_dir, clock, max_workers_total=2, snapshot_every=1)
    first._open_journal(workflow="LIVE")
    first._running = True
    first._begin(first.now())
    fs = first.hub.filesystem
    plan = None
    while plan is None:
        clock[0] += 1.0
        assert clock[0] < 10.0, "the START policy never planned"
        fs.write("io/v.json", {"v": clock[0]}, mtime=clock[0])
        first._monitor_round(first.now())
        first._decision_round(first.now())
        if len(first._queue):
            plan = first.arbitration.arbitrate(first._queue.get(), first.now())
    first._log_plan(plan)
    for _wait in first.actuation.execute(plan, on_done=first._on_plan_done):
        pass
    clock[0] += 0.1
    first._decision_round(first.now())  # a barrier, and the snapshot after it
    assert first.arbitration.gated(first.now()) is Reason.GATED_SETTLE
    first.stop()
    expected = first.arbitration.state_dict()

    clock[0] = 100.0  # a new process: its clock restarts
    second = by_hand(monkeypatch, journal_dir, clock, max_workers_total=2, snapshot_every=1)
    second.resume_from(journal_dir)
    assert second.plans == []  # the precondition: the plan records went with the compaction
    assert second.arbitration.gated(second.now()) is Reason.GATED_SETTLE
    assert second.arbitration.state_dict() == expected
