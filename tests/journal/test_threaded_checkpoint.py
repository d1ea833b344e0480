"""Checkpoint-restart for the wall-clock threaded driver.

A restarted :class:`ThreadedDyflow` pointed at its predecessor's journal
relaunches each mini-app at the step after its last ``task-checkpoint``
instead of recomputing from zero, and skips tasks that already finished.
"""

import time

from repro.journal import JournalSpec, read_journal
from repro.runtime import RuntimeOptions
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


def last_checkpoint(journal_dir):
    state = read_journal(journal_dir)
    steps = [r["next_step"] for r in state.records if r["kind"] == "task-checkpoint"
             and r["task"] == "T"]
    return max(steps) if steps else 0


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
    # The threaded runtime never snapshots: the meta record holds the spec.
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
