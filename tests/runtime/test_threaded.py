"""Tests for the wall-clock threaded driver (real tasks, real time).

These run actual threads with sub-second workloads; they are the slowest
tests in the suite but each stays under a few wall seconds.  What the
control plane did is read from the same records the simulator keeps:
Arbitration's outcomes and plans, and the launcher's task records.
"""

import sys
import threading
import time

import pytest

from repro.core import (
    ActionType,
    GroupBySpec,
    PolicyApplication,
    PolicySpec,
    SensorSpec,
    SuggestedAction,
)
from repro.core.actions import Reason
from repro.errors import DyflowError
from repro.resilience import ResilienceSpec, RetryPolicy
from repro.runtime import RuntimeOptions
from repro.runtime.threaded import LiveTaskSpec, ThreadedDyflow


def make_runner(tasks, **kw):
    defaults = dict(poll_interval=0.05, warmup=0.2, settle=0.2)
    defaults.update(kw)
    return ThreadedDyflow("LIVE", tasks, **defaults)


def granted(runner, line):
    """Did a plan grant *line* (``POLICY:ACTION:TASK``)?"""
    return any(line in plan.accepted for plan in runner.arbitration.plans)


class TestLiveExecution:
    def test_tasks_run_to_completion(self):
        steps = []
        runner = make_runner([LiveTaskSpec("T", lambda s, w: steps.append(s), total_steps=5)])
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        runner.stop()
        assert steps == [0, 1, 2, 3, 4]
        status = runner.hub.filesystem.read("status/LIVE/T")
        assert status[-1]["code"] == 0

    def test_crash_recorded_as_nonzero_exit(self):
        def boom(step, _w):
            raise RuntimeError("x")

        runner = make_runner([LiveTaskSpec("T", boom, total_steps=5)])
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        runner.stop()
        assert runner.hub.filesystem.read("status/LIVE/T")[-1]["code"] == 1

    def test_pace_sensor_observes_real_looptimes(self):
        runner = make_runner(
            [LiveTaskSpec("T", lambda s, w: time.sleep(0.05), total_steps=8)]
        )
        runner.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        runner.monitor_task("T", "PACE")
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        time.sleep(0.2)  # let the monitor drain the last steps
        runner.stop()
        values = [u.value for u in runner.server.history if u.task == "T"]
        assert values and all(0.04 < v < 0.5 for v in values)

    def test_an_exit_status_is_collected_in_the_next_monitor_round(self):
        """The status write wakes the ERRORSTATUS binding under the
        launcher's lock, which every Monitor round holds: the first round
        after the write reads the record."""
        runner = make_runner([LiveTaskSpec("T", lambda s, w: None, total_steps=3)])
        runner.add_sensor(SensorSpec("STATUS", "ERRORSTATUS"))
        runner.monitor_task("T", "STATUS")
        client, fs = runner.clients[0], runner.hub.filesystem
        rounds: list[list[str]] = []  # per Monitor round: its envelopes' senders
        writes: list[tuple[int, bool]] = []  # per status write: rounds before, lock held
        collect, append_record = client.collect, fs.append_record

        def spy_collect(now):
            out = collect(now)
            rounds.append([env.sender for _lag, env in out])
            return out

        def spy_append_record(path, record, mtime):
            writes.append((len(rounds), runner.lock._is_owned()))
            return append_record(path, record, mtime)

        client.collect, fs.append_record = spy_collect, spy_append_record
        runner.start()
        try:
            assert runner.wait_until_done(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while len(rounds) <= writes[0][0] and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            runner.stop()
        [(before, locked)] = writes
        assert locked
        assert rounds[before] == ["live-client/STATUS"]
        assert [u.value for u in runner.server.history if u.sensor_id == "STATUS"] == [0.0]

    def test_no_exit_status_is_lost_under_thread_churn(self):
        """Eight tasks on two cores exit while the Monitor thread collects,
        with the interpreter switching threads every 10 µs: each status
        write wakes its binding, and each record is read exactly once."""
        names = [f"T{i}" for i in range(8)]
        runner = make_runner([LiveTaskSpec(n, lambda s, w: None, total_steps=2 + i)
                              for i, n in enumerate(names)], poll_interval=0.01)
        runner.add_sensor(SensorSpec("STATUS", "ERRORSTATUS"))
        for name in names:
            runner.monitor_task(name, "STATUS")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            assert runner.wait_until_done(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while len(runner.server.history) < len(names) and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            sys.setswitchinterval(interval)
            runner.stop()
        assert sorted(u.task for u in runner.server.history) == names

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(DyflowError):
            make_runner([LiveTaskSpec("T", lambda s, w: None),
                         LiveTaskSpec("T", lambda s, w: None)])


class TestLiveActions:
    def test_restart_on_failure(self):
        crashed = {"done": False}

        def flaky(step, _w):
            # Crash once, after the 0.2 s warmup: a suggestion inside it is gated.
            if step == 8 and not crashed["done"]:
                crashed["done"] = True
                raise RuntimeError("injected")
            time.sleep(0.05)

        # A long-lived companion keeps the run alive across the restart
        # gate (as the solver does in the live example).
        runner = make_runner([
            LiveTaskSpec("T", flaky, total_steps=10),
            LiveTaskSpec("BG", lambda s, w: time.sleep(0.05), total_steps=30),
        ])
        runner.add_sensor(SensorSpec("STATUS", "ERRORSTATUS", (GroupBySpec("task", "FIRST"),)))
        runner.monitor_task("T", "STATUS", var=None)
        runner.add_policy(
            PolicySpec("RESTART_ON_FAILURE", "STATUS", "GT", 0.0, ActionType.RESTART,
                       frequency=0.1)
        )
        runner.apply_policy(
            PolicyApplication("RESTART_ON_FAILURE", "LIVE", ("T",), assess_task="T")
        )
        runner.start()
        assert runner.wait_until_done(timeout=15.0)
        runner.stop()
        assert runner.launcher.record("T").incarnations == 2
        assert granted(runner, "RESTART_ON_FAILURE:RESTART:T")
        codes = [r["code"] for r in runner.hub.filesystem.read("status/LIVE/T")]
        assert codes == [1, 0]

    def test_addcpu_restarts_with_more_workers(self):
        seen_workers = []

        def work(step, nworkers):
            seen_workers.append(nworkers)
            time.sleep(0.05)

        runner = make_runner(
            [LiveTaskSpec("T", work, nworkers=1, total_steps=40)],
            warmup=0.1, settle=0.3,
        )
        runner.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        runner.monitor_task("T", "PACE")
        runner.add_policy(
            PolicySpec("INC", "PACE", "GT", 0.01, ActionType.ADDCPU,
                       history_window=2, history_op="AVG", frequency=0.2)
        )
        runner.apply_policy(
            PolicyApplication("INC", "LIVE", ("T",), assess_task="T",
                              action_params={"adjust-by": 2})
        )
        runner.start()
        time.sleep(2.0)
        runner.stop()
        assert max(seen_workers) >= 3  # at least one ADDCPU applied
        assert granted(runner, "INC:ADDCPU:T")

    def test_warmup_gates_actions(self):
        def boom_once(step, _w):
            if step == 0:
                raise RuntimeError("dies instantly")

        runner = make_runner([LiveTaskSpec("T", boom_once, total_steps=3)],
                             warmup=60.0)
        runner.add_sensor(SensorSpec("STATUS", "ERRORSTATUS", (GroupBySpec("task", "FIRST"),)))
        runner.monitor_task("T", "STATUS", var=None)
        runner.add_policy(
            PolicySpec("R", "STATUS", "GT", 0.0, ActionType.RESTART, frequency=0.1)
        )
        runner.apply_policy(PolicyApplication("R", "LIVE", ("T",), assess_task="T"))
        runner.start()
        time.sleep(1.0)
        runner.stop()
        # The crash's one RESTART suggestion is discarded, not deferred.
        assert runner.arbitration.outcome_counts == {Reason.GATED_WARMUP: 1}
        assert runner.arbitration.plans == []


def test_addcpu_while_other_tasks_exit():
    """ADDCPU suggestions stream through Arbitration and Actuation while
    hundreds of task threads exit on their own.

    Arbitration totals the node's free cores while exits release them.
    Before the exit path and Arbitration shared one lock, that read raised
    ``RuntimeError: dictionary changed size during iteration``, which
    killed the daemon arbitration thread and dropped every later
    suggestion.  The node holds exactly the initial composition, so ``T``
    grows only into cores the exits freed, and never past the node.
    """
    grow = SuggestedAction("P", ActionType.ADDCPU, "T", "LIVE", params={"adjust-by": 1})
    cores = 402
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(3):
            go = threading.Event()  # holds the short tasks until ADDCPUs are flowing
            short = [
                LiveTaskSpec(f"S{i}", lambda s, w: go.wait(60.0), total_steps=1 + i % 40)
                for i in range(400)  # far more threads than the CI runner has cores
            ]
            runner = make_runner(
                [LiveTaskSpec("T", lambda s, w: time.sleep(0.001), nworkers=2)] + short,
                max_workers_total=cores, warmup=0.0, settle=0.0,
            )
            rm = runner.launcher.rm
            overlapped = 0
            runner.start()
            arbitration_thread = runner._threads[-1]
            try:
                threading.Timer(0.05, go.set).start()
                deadline = time.monotonic() + 60.0
                while (any(runner.launcher.record(t.name).is_active for t in short)
                       and time.monotonic() < deadline):
                    with runner.lock:
                        runner._hand_off([grow])
                        rm.check_invariants()  # raises on an oversubscribed node
                    overlapped += go.is_set()
                    time.sleep(0.001)
                assert time.monotonic() < deadline, "short tasks never finished"
                assert overlapped > 1  # suggestions kept coming while tasks exited
                time.sleep(0.2)  # let the last suggestions land
                assert arbitration_thread.is_alive()
            finally:
                go.set()
                runner.stop()
            rm.check_invariants()
            t_cores = [i.nprocs for i in runner.launcher.record("T").all_instances()]
            assert max(t_cores) > 2 and max(t_cores) <= cores  # grew into freed cores
            assert runner.arbitration.outcome_counts.get(Reason.GRANTED)
    finally:
        sys.setswitchinterval(interval)


class TestRestartHooks:
    def test_a_restart_clears_a_windowed_policy(self):
        """A restarted task runs at a new size: its windowed policy must not
        average the old incarnation's pace with the new one's."""
        restarted, release = threading.Event(), threading.Event()
        lives = []

        def work(step, _w):
            if step == 0:
                lives.append(step)
            if len(lives) == 2:  # the second incarnation: publish nothing yet
                restarted.set()
                release.wait(10.0)
            elif step == 3:
                deadline = time.monotonic() + 10.0
                while len(window()) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)  # both window slots hold this life's pace
                raise RuntimeError("crash")
            time.sleep(0.01)

        retry = RetryPolicy(max_retries=1, backoff_base=0.05, jitter=0.0)
        runner = make_runner([LiveTaskSpec("T", work, total_steps=6)],
                             options=RuntimeOptions(resilience=ResilienceSpec(retry=retry)))
        runner.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        runner.monitor_task("T", "PACE")
        runner.add_policy(PolicySpec("SLOW", "PACE", "GT", 1e9, ActionType.ADDCPU,
                                     history_window=2, frequency=0.05))
        runner.apply_policy(PolicyApplication("SLOW", "LIVE", ("T",), assess_task="T"))
        (policy,) = runner.decision.runtimes

        def window():
            return policy.state_dict()["window"]

        runner.start()
        try:
            assert restarted.wait(10.0)
            time.sleep(0.2)  # several monitor and decision rounds
            assert window() == []
        finally:
            release.set()
            runner.stop()
        assert lives == [0, 0]
