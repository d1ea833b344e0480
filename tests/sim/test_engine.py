"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimTimeError
from repro.sim import SimEngine, SimEvent


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert SimEngine().now == 0.0

    def test_timeout_fires_at_time(self):
        eng = SimEngine()
        fired = []
        eng.call_after(2.0, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [2.0]

    def test_a_timeout_sets_every_slot_the_event_constructor_sets(self):
        # timeout() builds its event without SimEvent.__init__.
        ev = SimEngine().timeout(1.0, "v")
        assert [n for n in SimEvent.__slots__ if not hasattr(ev, n)] == []
        assert (ev.name, ev.callbacks, ev.triggered, ev.cancelled) == ("timeout", [], False, False)

    def test_negative_timeout_rejected(self):
        eng = SimEngine()
        with pytest.raises(SimTimeError):
            eng.timeout(-1)

    def test_call_at_in_past_rejected(self):
        eng = SimEngine()
        eng.call_after(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimTimeError):
            eng.call_at(1.0, lambda: None)

    def test_same_time_events_fifo(self):
        eng = SimEngine()
        order = []
        for i in range(5):
            eng.call_at(1.0, lambda i=i: order.append(i))
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_stops_clock(self):
        eng = SimEngine()
        fired = []
        eng.call_after(10.0, lambda: fired.append("late"))
        end = eng.run(until=5.0)
        assert end == 5.0 and eng.now == 5.0 and fired == []
        eng.run()
        assert fired == ["late"]

    def test_run_until_stops_at_the_first_live_event_past_until(self):
        # A cancelled head entry is skipped; the live one behind it is
        # still checked against `until` before it runs.
        eng = SimEngine()
        fired = []
        a = eng.call_at(1.0, lambda: fired.append("a"))
        eng.call_at(5.0, lambda: fired.append("b"))
        a.cancel()
        assert eng.run(until=2.0) == 2.0
        assert fired == [] and eng.events_executed == 0
        assert eng.run() == 5.0 and fired == ["b"]

    def test_run_until_advances_clock_even_without_events(self):
        eng = SimEngine()
        eng.run(until=42.0)
        assert eng.now == 42.0

    def test_run_until_in_past_rejected(self):
        eng = SimEngine()
        eng.run(until=10.0)
        with pytest.raises(SimTimeError):
            eng.run(until=5.0)

    def test_peek(self):
        eng = SimEngine()
        assert eng.peek() is None
        eng.call_after(3.0, lambda: None)
        assert eng.peek() == 3.0

    @given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=50))
    def test_events_fire_in_time_order(self, delays):
        eng = SimEngine()
        fired = []
        for d in delays:
            eng.call_after(d, lambda d=d: fired.append(eng.now))
        eng.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestProcesses:
    def test_process_return_value(self):
        eng = SimEngine()

        def proc():
            yield eng.timeout(1.0)
            return 42

        assert eng.run_process(proc()) == 42

    def test_process_sees_timeout_value(self):
        eng = SimEngine()

        def proc():
            got = yield eng.timeout(1.0, value="payload")
            return got

        assert eng.run_process(proc()) == "payload"

    def test_process_exception_propagates(self):
        eng = SimEngine()

        def proc():
            yield eng.timeout(1.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            eng.run_process(proc())

    def test_process_waits_on_process(self):
        eng = SimEngine()

        def child():
            yield eng.timeout(3.0)
            return "child-result"

        def parent():
            result = yield eng.process(child(), "child")
            return (eng.now, result)

        assert eng.run_process(parent()) == (3.0, "child-result")

    def test_processes_interleave(self):
        eng = SimEngine()
        log = []

        def ticker(name, dt, n):
            for _ in range(n):
                yield eng.timeout(dt)
                log.append((eng.now, name))

        eng.process(ticker("fast", 1.0, 3))
        eng.process(ticker("slow", 2.0, 2))
        eng.run()
        # At t=2.0 both fire; "slow"'s timeout was scheduled first (at t=0)
        # so it resumes first — ties break by schedule order.
        assert log == [(1.0, "fast"), (2.0, "slow"), (2.0, "fast"), (3.0, "fast"), (4.0, "slow")]

    def test_yield_non_event_fails_process(self):
        eng = SimEngine()

        def bad():
            yield 5

        proc = eng.process(bad())
        eng.run()
        assert proc.triggered and not proc.ok

    def test_wait_on_manual_event(self):
        eng = SimEngine()
        gate = eng.event("gate")
        log = []

        def waiter():
            value = yield gate
            log.append((eng.now, value))

        eng.process(waiter())
        eng.call_after(7.0, lambda: gate.succeed("open"))
        eng.run()
        assert log == [(7.0, "open")]
