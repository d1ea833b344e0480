"""Tests for seeded RNG streams and the run log (once the trace recorder)."""

import sys
import threading

import pytest

from repro.sim import RngRegistry, RunLog


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(42).stream("steps").random(5)
        b = RngRegistry(42).stream("steps").random(5)
        assert (a == b).all()

    def test_streams_differ_by_name(self):
        reg = RngRegistry(42)
        a = reg.stream("x").random(5)
        b = reg.stream("y").random(5)
        assert not (a == b).all()

    def test_streams_differ_by_seed(self):
        a = RngRegistry(1).stream("x").random(5)
        b = RngRegistry(2).stream("x").random(5)
        assert not (a == b).all()

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(7)
        r1.stream("b")
        a1 = r1.stream("a").random(3)
        r2 = RngRegistry(7)
        a2 = r2.stream("a").random(3)
        assert (a1 == a2).all()

    def test_fork_deterministic(self):
        a = RngRegistry(3).fork("child").stream("s").random(4)
        b = RngRegistry(3).fork("child").stream("s").random(4)
        assert (a == b).all()


class TestTraceRecorder:
    def test_open_close_span(self):
        tr = RunLog()
        tr.open_span("XGC1", "run-0", 0.0)
        span = tr.close_span("XGC1", "run-0", 10.0, exit_code=0)
        assert span.duration == 10.0
        assert span.meta["exit_code"] == 0

    def test_double_open_rejected(self):
        tr = RunLog()
        tr.open_span("t", "l", 0.0)
        with pytest.raises(ValueError):
            tr.open_span("t", "l", 1.0)

    def test_close_unopened_rejected(self):
        tr = RunLog()
        with pytest.raises(ValueError):
            tr.close_span("t", "l", 1.0)

    def test_open_duration_raises(self):
        tr = RunLog()
        span = tr.open_span("t", "l", 0.0)
        with pytest.raises(ValueError):
            _ = span.duration

    def test_filtering_and_ordering(self):
        tr = RunLog()
        tr.add_span("B", "x", 5.0, 6.0)
        tr.add_span("A", "y", 1.0, 2.0, category="adjust")
        tr.add_span("A", "z", 3.0, 4.0)
        assert [s.track for s in tr.spans_for()] == ["A", "A", "B"]
        assert [s.label for s in tr.spans_for(track="A")] == ["y", "z"]
        assert [s.label for s in tr.spans_for(category="adjust")] == ["y"]

    def test_points(self):
        tr = RunLog()
        tr.point(3.0, "switch", category="action")
        tr.point(1.0, "start", category="action")
        tr.point(2.0, "noise")
        assert [p.label for p in tr.points_for(category="action")] == ["start", "switch"]

    def test_tracks_first_appearance_order(self):
        tr = RunLog()
        tr.add_span("sim", "a", 0, 1)
        tr.add_span("analysis", "b", 0, 1)
        tr.add_span("sim", "c", 2, 3)
        assert tr.tracks() == ["sim", "analysis"]

    def test_end_time(self):
        tr = RunLog()
        assert tr.end_time() == 0.0
        tr.add_span("t", "a", 0.0, 9.0)
        tr.point(11.0, "late")
        assert tr.end_time() == 11.0

    def test_appends_from_many_threads_are_all_kept(self):
        """The threaded runtime appends from its stage and task threads."""
        log, per_thread = RunLog(), 2_000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda i=i: [log.point(i, "p") for _ in range(per_thread)])
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(log.records()) == 8 * per_thread
