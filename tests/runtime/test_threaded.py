"""Tests for the wall-clock threaded driver (real tasks, real time).

These run actual threads with sub-second workloads; they are the slowest
tests in the suite but each stays under a few wall seconds.
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
from repro.errors import DyflowError
from repro.runtime.threaded import LiveTaskSpec, ThreadedDyflow


def make_runner(tasks, **kw):
    defaults = dict(poll_interval=0.05, warmup=0.2, settle=0.2)
    defaults.update(kw)
    return ThreadedDyflow("LIVE", tasks, **defaults)


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

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(DyflowError):
            make_runner([LiveTaskSpec("T", lambda s, w: None),
                         LiveTaskSpec("T", lambda s, w: None)])


class TestLiveActions:
    def test_restart_on_failure(self):
        crashed = {"done": False}

        def flaky(step, _w):
            if step == 2 and not crashed["done"]:
                crashed["done"] = True
                raise RuntimeError("injected")
            time.sleep(0.02)

        # A long-lived companion keeps the run alive across the restart
        # gate (as the solver does in the live example).
        runner = make_runner([
            LiveTaskSpec("T", flaky, total_steps=6),
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
        assert runner._incarnations["T"] == 2
        assert any("RESTART:T" in a for _t, a in runner.applied_actions)
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
        assert any("ADDCPU:T" in a for _t, a in runner.applied_actions)

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
        assert runner.applied_actions == []  # gated by the long warmup


def test_addcpu_while_other_tasks_exit():
    """ADDCPU under ``max_workers_total`` totals the *other* tasks' workers
    while their threads remove themselves from the instance table.

    Outside the state lock that read raised ``RuntimeError: dictionary
    changed size during iteration``, which killed the daemon arbitration
    thread and dropped every later suggestion.
    """
    grow = SuggestedAction("P", ActionType.ADDCPU, "T", "LIVE", params={"adjust-by": 1})
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
                max_workers_total=2,
            )
            overlapped = 0
            runner.start()
            try:
                threading.Timer(0.05, go.set).start()
                deadline = time.monotonic() + 60.0
                while (runner._health_aggregates()["tasks.running"] > 1
                       and time.monotonic() < deadline):
                    runner._apply([grow])
                    overlapped += go.is_set()
                assert time.monotonic() < deadline, "short tasks never finished"
                assert overlapped > 1  # suggestions kept coming while tasks exited
                assert runner.nworkers("T") == 2  # the cap held: T was never grown
            finally:
                go.set()
                runner.stop()
            assert runner.applied_actions == []
    finally:
        sys.setswitchinterval(interval)
