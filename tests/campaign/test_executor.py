"""The crash-supervised executor: serial determinism, real-process supervision.

Serial mode (``workers=0``) is wall-clock-free and exercised for retry,
poison, chaos, and backoff-schedule semantics.  Supervised mode forks
real worker processes, so those tests use tiny workloads and tight
timeouts; crash-once behavior is coordinated through marker files.
"""

import os
import pathlib
import time

import pytest

from repro.campaign import CellFailure, ExecutorSpec, SupervisedExecutor
from repro.campaign.executor import COMPLETED
from repro.errors import ReproError
from repro.sim import RngRegistry


def serial_spec(**kwargs):
    defaults = dict(workers=0, backoff_base=0.0, jitter=0.0)
    defaults.update(kwargs)
    return ExecutorSpec(**defaults)


def _double(payload):
    return payload * 2


def _boom(payload):
    raise RuntimeError(f"boom {payload}")


def _crash_once(marker):
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("crashed")
        os._exit(17)  # die without reporting — a real worker crash
    return "recovered"


def _hang(payload):
    time.sleep(60.0)


class TestSerialMode:
    def test_success_on_first_attempt(self):
        ex = SupervisedExecutor(serial_spec())
        [out] = ex.run([("c", 21)], _double)
        assert (out.status, out.result, out.attempts) == (COMPLETED, 42, 1)
        assert out.failures == []
        assert not out.poisoned

    def test_outcomes_follow_submission_order(self):
        ex = SupervisedExecutor(serial_spec())
        outs = ex.run([("z", 1), ("a", 2), ("m", 3)], _double)
        assert [o.cell_id for o in outs] == ["z", "a", "m"]
        assert [o.result for o in outs] == [2, 4, 6]

    def test_transient_error_is_retried(self):
        calls = []

        def flaky(payload):
            calls.append(payload)
            if len(calls) < 3:
                raise ValueError("not yet")
            return "done"

        ex = SupervisedExecutor(serial_spec(max_attempts=5))
        [out] = ex.run([("c", None)], flaky)
        assert out.status == COMPLETED
        assert out.attempts == 3
        assert [f.kind for f in out.failures] == ["error", "error"]
        assert "ValueError" in out.failures[0].detail

    def test_poison_after_max_attempts(self):
        ex = SupervisedExecutor(serial_spec(max_attempts=3))
        [out] = ex.run([("c", 9)], _boom)
        assert out.poisoned
        assert out.attempts == 3
        assert [f.attempt for f in out.failures] == [1, 2, 3]
        assert all(f.kind == "error" for f in out.failures)

    def test_duplicate_cell_ids_rejected(self):
        ex = SupervisedExecutor(serial_spec())
        with pytest.raises(ReproError, match="duplicate cell ids"):
            ex.run([("c", 1), ("c", 2)], _double)

    def test_chaos_schedule_is_reproducible_from_the_seed(self):
        spec = serial_spec(kill_prob=0.5, max_attempts=8)

        def run_once():
            ex = SupervisedExecutor(spec, rng=RngRegistry(7))
            return ex.run([(f"c{i}", i) for i in range(4)], _double)

        first, second = run_once(), run_once()
        assert [(o.status, [f.kind for f in o.failures]) for o in first] == [
            (o.status, [f.kind for f in o.failures]) for o in second
        ]
        kinds = [f.kind for o in first for f in o.failures]
        assert kinds, "kill_prob=0.5 over 4 cells x 8 attempts must inject kills"
        assert set(kinds) == {"killed"}

    def test_chaos_draws_match_the_named_stream(self):
        spec = serial_spec(kill_prob=0.5, max_attempts=8)
        ex = SupervisedExecutor(spec, rng=RngRegistry(3))
        [out] = ex.run([("cell", 1)], _double)
        stream = RngRegistry(3).stream("campaign:chaos:cell")
        expected = 0
        while expected < 8 and float(stream.random()) < 0.5:
            expected += 1
        assert len(out.failures) == min(expected, 8)


class TestBackoffSchedule:
    def test_exponential_growth_capped(self):
        spec = ExecutorSpec(backoff_base=1.0, backoff_factor=2.0,
                            backoff_max=5.0, jitter=0.0)
        ex = SupervisedExecutor(spec)
        delays = [ex.backoff("c", a) for a in range(5)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stays_within_band_and_replays(self):
        spec = ExecutorSpec(backoff_base=1.0, backoff_factor=1.0, jitter=0.25)
        a = SupervisedExecutor(spec, rng=RngRegistry(11))
        b = SupervisedExecutor(spec, rng=RngRegistry(11))
        for attempt in range(20):
            delay = a.backoff("c", attempt)
            assert 0.75 <= delay <= 1.25
            assert delay == b.backoff("c", attempt)

    def test_jitter_streams_are_per_cell(self):
        ex = SupervisedExecutor(
            ExecutorSpec(backoff_base=1.0, backoff_factor=1.0, jitter=0.25),
            rng=RngRegistry(11),
        )
        assert ex.backoff("left", 0) != ex.backoff("right", 0)

    def test_failed_attempts_record_their_backoff(self):
        ex = SupervisedExecutor(serial_spec(max_attempts=2, backoff_base=1.0,
                                            backoff_factor=2.0))
        [out] = ex.run([("c", 1)], _boom)
        assert [f.backoff for f in out.failures] == [1.0, 2.0]


class TestSupervisedMode:
    """Real forked workers: crashes are contained, never fatal."""

    def test_parallel_batch_completes_in_submission_order(self):
        ex = SupervisedExecutor(ExecutorSpec(workers=3, backoff_base=0.0))
        outs = ex.run([(f"c{i}", i) for i in range(6)], _double)
        assert [o.cell_id for o in outs] == [f"c{i}" for i in range(6)]
        assert [o.result for o in outs] == [0, 2, 4, 6, 8, 10]
        assert all(o.status == COMPLETED for o in outs)

    def test_dead_worker_is_detected_and_respawned(self, tmp_path):
        ex = SupervisedExecutor(
            ExecutorSpec(workers=1, max_attempts=3, backoff_base=0.0, jitter=0.0)
        )
        [out] = ex.run([("c", str(tmp_path / "marker"))], _crash_once)
        assert out.status == COMPLETED
        assert out.result == "recovered"
        assert out.attempts == 2
        assert out.failures[0].kind == "worker-died"
        assert "exitcode" in out.failures[0].detail
        assert ex.respawns == 1

    def test_timeout_kills_the_attempt(self):
        ex = SupervisedExecutor(
            ExecutorSpec(workers=1, max_attempts=1, cell_timeout=0.2)
        )
        [out] = ex.run([("c", None)], _hang)
        assert out.poisoned
        assert out.failures[0].kind == "timeout"
        assert "0.2" in out.failures[0].detail

    def test_injected_kills_in_worker_processes(self):
        ex = SupervisedExecutor(
            ExecutorSpec(workers=2, max_attempts=6, backoff_base=0.0,
                         jitter=0.0, kill_prob=0.6),
            rng=RngRegistry(5),
        )
        outs = ex.run([(f"c{i}", i) for i in range(3)], _double)
        kinds = [f.kind for o in outs for f in o.failures]
        assert "killed" in kinds
        assert ex.respawns > 0
        # The chaos schedule is the supervisor's: the same seed injects
        # the same kills, so completion is deterministic too (the unluckiest
        # cell completes on its sixth and last attempt).
        assert all(o.status == COMPLETED for o in outs)

    def test_worker_error_is_reported_not_fatal(self):
        ex = SupervisedExecutor(
            ExecutorSpec(workers=2, max_attempts=1, backoff_base=0.0)
        )
        [bad, good] = ex.run([("bad", 1), ("good", 2)], _boom_if_odd)
        assert bad.poisoned
        assert "RuntimeError" in bad.failures[0].detail
        assert good.status == COMPLETED


def _boom_if_odd(payload):
    if payload % 2:
        raise RuntimeError("odd payload")
    return payload


def test_failure_record_shape():
    f = CellFailure(attempt=2, kind="timeout", detail="exceeded", backoff=1.5)
    assert (f.attempt, f.kind, f.backoff) == (2, "timeout", 1.5)
