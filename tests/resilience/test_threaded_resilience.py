"""The recovery layer on wall-clock time: the live launcher's retry and
watchdog, read from its task records and Gantt trace points like the
simulated launcher's."""

import time

from repro.resilience import ResilienceSpec, RetryPolicy, WatchdogSpec
from repro.runtime import RuntimeOptions
from repro.runtime.threaded import LiveTaskSpec, ThreadedDyflow


def fast_retry(**kw):
    defaults = dict(max_retries=3, backoff_base=0.05, backoff_factor=1.0,
                    backoff_max=0.2, jitter=0.0)
    defaults.update(kw)
    return RetryPolicy(**defaults)


def make_runner(tasks, resilience):
    return ThreadedDyflow("LIVE", tasks, poll_interval=0.05, warmup=0.2,
                          settle=0.2, options=RuntimeOptions(resilience=resilience))


def status_records(runner, name):
    with runner.lock:
        path = f"status/{runner.workflow_id}/{name}"
        if not runner.hub.filesystem.exists(path):
            return []
        return list(runner.hub.filesystem.read(path))


def failure_points(runner, kind):
    """``(label, meta)`` of the launcher's *kind* trace points, e.g. ``retry-scheduled``."""
    return [(p.label, p.meta) for p in runner.launcher.trace.points_for(category="failure")
            if p.label.startswith(kind + ":")]


class TestThreadedRetry:
    def test_crashed_task_is_retried_to_completion(self):
        crashed = {"done": False}

        def flaky(step, _w):
            if step == 2 and not crashed["done"]:
                crashed["done"] = True
                raise RuntimeError("injected")
            time.sleep(0.01)

        runner = make_runner([LiveTaskSpec("T", flaky, total_steps=5)],
                             ResilienceSpec(retry=fast_retry()))
        runner.start()
        # A pending retry is not done: this returns after the relaunch.
        assert runner.wait_until_done(timeout=10.0)
        runner.stop()
        records = status_records(runner, "T")
        assert [r["code"] for r in records] == [1, 0]
        assert [r["incarnation"] for r in records] == [0, 1]
        ((label, meta),) = failure_points(runner, "retry-scheduled")
        assert label == "retry-scheduled:T" and meta["attempt"] == 1

    def test_retry_budget_exhaustion(self):
        def always_boom(_step, _w):
            raise RuntimeError("x")

        runner = make_runner([LiveTaskSpec("T", always_boom, total_steps=5)],
                             ResilienceSpec(retry=fast_retry(max_retries=2)))
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        runner.stop()
        assert runner.launcher.record("T").retry_exhausted
        assert [label for label, _ in failure_points(runner, "retry-exhausted")] == [
            "retry-exhausted:T"
        ]
        records = status_records(runner, "T")
        assert len(records) == 3  # original + 2 retries
        assert all(r["code"] == 1 for r in records)

    def test_no_policy_means_no_retry(self):
        def boom(_step, _w):
            raise RuntimeError("x")

        runner = make_runner([LiveTaskSpec("T", boom, total_steps=5)], None)
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        time.sleep(0.3)  # a retry timer would fire well within this window
        runner.stop()
        records = status_records(runner, "T")
        assert [r["code"] for r in records] == [1]
        assert failure_points(runner, "retry-scheduled") == []


class TestThreadedWatchdog:
    def test_hung_task_is_abandoned_and_replaced(self):
        hung = {"done": False}

        def sticky(step, _w):
            if step == 1 and not hung["done"]:
                hung["done"] = True
                time.sleep(2.0)  # far beyond the heartbeat timeout
            time.sleep(0.01)

        runner = make_runner(
            [LiveTaskSpec("T", sticky, total_steps=4)],
            ResilienceSpec(
                retry=fast_retry(),
                watchdog=WatchdogSpec(heartbeat_timeout=0.4, poll=0.1, kill_code=142),
            ),
        )
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        runner.stop()
        assert [label for label, _ in failure_points(runner, "watchdog-kill")] == [
            "watchdog-kill:T"
        ]
        # The hung thread was abandoned with the kill code, and its late
        # exit ignored; the retry path brought up the replacement.
        codes = [r["code"] for r in status_records(runner, "T")]
        assert codes == [142, 0]
        assert [label for label, _ in failure_points(runner, "retry-scheduled")] == [
            "retry-scheduled:T"
        ]

    def test_healthy_tasks_not_killed(self):
        runner = make_runner(
            [LiveTaskSpec("T", lambda s, w: time.sleep(0.02), total_steps=8)],
            ResilienceSpec(watchdog=WatchdogSpec(heartbeat_timeout=1.0, poll=0.1)),
        )
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        runner.stop()
        assert failure_points(runner, "watchdog-kill") == []
        assert status_records(runner, "T")[-1]["code"] == 0
