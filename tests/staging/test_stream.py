"""Tests for SST-like stream channels."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BufferOverflowError, ChannelClosedError
from repro.staging import OverflowPolicy, StreamChannel


class TestBasicFlow:
    def test_reader_sees_steps_in_order(self):
        ch = StreamChannel("c")
        r = ch.open_reader()
        ch.put("a", 1.0)
        ch.put("b", 2.0)
        steps = r.drain()
        assert [(s.step, s.data) for s in steps] == [(0, "a"), (1, "b")]

    def test_try_next_empty_returns_none(self):
        ch = StreamChannel("c")
        r = ch.open_reader()
        assert r.try_next() is None

    def test_multiple_readers_independent_cursors(self):
        ch = StreamChannel("c")
        r1 = ch.open_reader("r1")
        r2 = ch.open_reader("r2")
        ch.put("x", 0.0)
        assert r1.try_next().data == "x"
        assert r2.try_next().data == "x"
        assert r1.try_next() is None

    def test_late_reader_starts_at_oldest_retained(self):
        ch = StreamChannel("c", capacity=2)
        for i in range(5):
            ch.put(i, float(i))
        r = ch.open_reader()
        assert [s.data for s in r.drain()] == [3, 4]


class TestOverflow:
    def test_drop_oldest(self):
        ch = StreamChannel("c", capacity=3, policy=OverflowPolicy.DROP_OLDEST)
        r = ch.open_reader()
        for i in range(5):
            ch.put(i, float(i))
        assert ch.dropped_steps == 2
        assert [s.data for s in r.drain()] == [2, 3, 4]
        assert r.missed_steps == 2

    def test_error_policy(self):
        ch = StreamChannel("c", capacity=1, policy=OverflowPolicy.ERROR)
        ch.put("a", 0.0)
        with pytest.raises(BufferOverflowError):
            ch.put("b", 1.0)

    def test_grow_policy_unbounded(self):
        ch = StreamChannel("c", capacity=1, policy=OverflowPolicy.GROW)
        for i in range(10):
            ch.put(i, float(i))
        assert ch.dropped_steps == 0
        assert [s.data for s in ch.open_reader().drain()] == list(range(10))

    def test_consuming_frees_no_space_but_cursor_jumps(self):
        """DROP_OLDEST evicts regardless of reader position; slow readers lose steps."""
        ch = StreamChannel("c", capacity=2)
        r = ch.open_reader()
        ch.put(0, 0.0)
        ch.put(1, 0.0)
        assert r.try_next().data == 0
        ch.put(2, 0.0)  # evicts step 1? no: buffer holds [1], appends 2
        assert [s.data for s in r.drain()] == [1, 2]


class TestCloseReopen:
    def test_write_after_close_rejected(self):
        ch = StreamChannel("c")
        ch.close()
        with pytest.raises(ChannelClosedError):
            ch.put("x", 0.0)

    def test_reader_drains_after_close_then_eos(self):
        ch = StreamChannel("c")
        r = ch.open_reader()
        ch.put("x", 0.0)
        ch.close()
        assert not r.at_eos()
        assert r.try_next().data == "x"
        assert r.at_eos()

    def test_reopen_continues_numbering(self):
        ch = StreamChannel("c")
        ch.put("a", 0.0)
        ch.close()
        ch.reopen()
        step = ch.put("b", 1.0)
        assert step == 1

    def test_seek_latest_skips_staged_steps(self):
        ch = StreamChannel("c", capacity=10)
        r = ch.open_reader()
        for i in range(5):
            ch.put(i, float(i))
        r.seek_latest()
        assert r.try_next() is None  # everything staged is skipped
        ch.put(5, 5.0)
        assert r.try_next().data == 5  # strictly new data flows


class TestWatch:
    def test_a_publish_adds_each_watching_readers_token(self):
        ch = StreamChannel("c")
        wake: set[int] = set()
        ch.open_reader("a").watch(wake, 3)
        ch.open_reader("b").watch(wake, 5)
        ch.open_reader("quiet")  # not watching: nothing to add
        assert wake == set()
        ch.put("x", 0.0)
        assert wake == {3, 5}

    def test_a_write_lost_in_transit_wakes_nobody(self):
        ch = StreamChannel("c")
        ch.drop_filter = lambda _name, _data: True
        wake: set[int] = set()
        ch.open_reader().watch(wake, 0)
        ch.put("x", 0.0)
        assert wake == set() and ch.next_step == 0

    def test_unwatch_drops_the_channels_reference(self):
        ch = StreamChannel("c")
        wake: set[int] = set()
        r = ch.open_reader()
        r.watch(wake, 0)
        r.watch(wake, 0)  # idempotent
        assert ch._watchers == [r]
        r.unwatch()
        r.unwatch()
        ch.put("x", 0.0)
        assert ch._watchers == [] and wake == set()
        assert r.try_next().data == "x"  # still a reader, just not woken


class TestStreamProperties:
    @given(st.integers(1, 8), st.integers(0, 40))
    def test_reader_never_sees_duplicates_or_regressions(self, capacity, nputs):
        ch = StreamChannel("c", capacity=capacity)
        r = ch.open_reader()
        seen = []
        for i in range(nputs):
            ch.put(i, float(i))
            if i % 3 == 0:
                seen.extend(s.data for s in r.drain())
        seen.extend(s.data for s in r.drain())
        assert seen == sorted(set(seen))
        assert len(seen) + r.missed_steps == nputs
