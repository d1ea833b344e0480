"""Model-based check: a ``StreamChannel`` that keeps payloads and publish
times in flat lists, and builds a ``StreamStep`` only when one is read or
observed, behaves exactly like a channel that keeps a list of
``StreamStep`` records.

The reference twin below is that list-of-records channel, kept here,
test-only.  Rules publish, close, reopen, open readers, read one step,
drain, skip to the newest step, and attach or detach an observer, on both
sides at once, under each ``OverflowPolicy`` and a small capacity.  Every
returned record and every error must match, and after every step both
sides must agree on each reader's ``missed_steps``, ``at_eos()`` and
cursor, on ``dropped_steps`` and ``next_step``, and on what the observers
were told.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.errors import BufferOverflowError, ChannelClosedError
from repro.staging.stream import OverflowPolicy, StreamChannel, StreamStep

MAX_READERS = 3


class ReferenceChannel:
    """The retained steps as one list of ``StreamStep`` records."""

    def __init__(self, capacity: int, policy: OverflowPolicy) -> None:
        self.capacity, self.policy = capacity, policy
        self.steps: list[StreamStep] = []
        self.first = 0
        self.next_step = 0
        self.closed = False
        self.dropped_steps = 0
        self.observers: list = []

    def put(self, data, time: float) -> int:
        if self.closed:
            raise ChannelClosedError("closed")
        if len(self.steps) >= self.capacity:
            if self.policy is OverflowPolicy.ERROR:
                raise BufferOverflowError("full")
            if self.policy is OverflowPolicy.DROP_OLDEST:
                del self.steps[0]
                self.first += 1
                self.dropped_steps += 1
        record = StreamStep(self.next_step, data, time)
        self.steps.append(record)
        self.next_step += 1
        for observer in self.observers:
            observer(self, record)
        return record.step

    def open_reader(self) -> "ReferenceReader":
        return ReferenceReader(self)


class ReferenceReader:
    def __init__(self, channel: ReferenceChannel) -> None:
        self.channel = channel
        self.cursor = channel.first
        self.missed_steps = 0

    def try_next(self) -> StreamStep | None:
        ch = self.channel
        if self.cursor < ch.first:
            self.missed_steps += ch.first - self.cursor
            self.cursor = ch.first
        if self.cursor >= ch.next_step:
            return None
        record = ch.steps[self.cursor - ch.first]
        self.cursor += 1
        return record

    def drain(self) -> list[StreamStep]:
        out = []
        while (record := self.try_next()) is not None:
            out.append(record)
        return out

    def at_eos(self) -> bool:
        return self.channel.closed and self.cursor >= self.channel.next_step

    def seek_latest(self) -> None:
        self.cursor = self.channel.next_step


def outcome(fn, *args):
    """A call's return value, or the type of the error it raised."""
    try:
        return "ok", fn(*args)
    except (BufferOverflowError, ChannelClosedError) as e:
        return "raised", type(e)


readers = st.integers(0, MAX_READERS - 1)


class ChannelTwins(RuleBasedStateMachine):
    POLICY: OverflowPolicy

    @initialize(capacity=st.integers(1, 4))
    def build(self, capacity):
        self.channel = StreamChannel("ch", capacity=capacity, policy=self.POLICY)
        self.twin = ReferenceChannel(capacity, self.POLICY)
        self.readers: list[tuple] = []
        self.told: tuple[list, list] = ([], [])
        self.observers: tuple | None = None
        self.now = 0.0

    def _pair(self, i: int) -> tuple:
        return self.readers[i % len(self.readers)]

    @rule(data=st.integers())
    def put(self, data):
        self.now += 1.0
        payload = {"data": data}  # one object, as a task publishes
        got = outcome(self.channel.put, payload, self.now)
        want = outcome(self.twin.put, payload, self.now)
        assert got == want

    @precondition(lambda self: len(self.readers) < MAX_READERS)
    @rule()
    def open_reader(self):
        self.readers.append((self.channel.open_reader(), self.twin.open_reader()))

    @precondition(lambda self: self.readers)
    @rule(i=readers)
    def try_next(self, i):
        reader, ref = self._pair(i)
        got, want = reader.try_next(), ref.try_next()
        assert got == want
        if got is not None:
            assert type(got) is StreamStep and got.data is want.data

    @precondition(lambda self: self.readers)
    @rule(i=readers)
    def drain(self, i):
        reader, ref = self._pair(i)
        got, want = reader.drain(), ref.drain()
        assert got == want
        assert all(type(r) is StreamStep and r.data is w.data for r, w in zip(got, want))

    @precondition(lambda self: self.readers)
    @rule(i=readers)
    def seek_latest(self, i):
        for side in self._pair(i):
            side.seek_latest()

    @rule()
    def close(self):
        self.channel.close()
        self.twin.closed = True

    @rule()
    def reopen(self):
        self.channel.reopen()
        self.twin.closed = False

    @rule()
    def toggle_observer(self):
        if self.observers is None:
            self.observers = (lambda ch, rec: self.told[0].append(rec),
                              lambda ch, rec: self.told[1].append(rec))
            self.channel.observers.append(self.observers[0])
            self.twin.observers.append(self.observers[1])
        else:
            self.channel.observers.remove(self.observers[0])
            self.twin.observers.remove(self.observers[1])
            self.observers = None

    @invariant()
    def same_state(self):
        ch, twin = self.channel, self.twin
        assert (ch.next_step, ch.dropped_steps, ch.closed) == (
            twin.next_step, twin.dropped_steps, twin.closed)
        for reader, ref in self.readers:
            assert (reader.cursor, reader.missed_steps, reader.at_eos()) == (
                ref.cursor, ref.missed_steps, ref.at_eos())
        assert self.told[0] == self.told[1]
        assert all(type(r) is StreamStep for r in self.told[0])


SETTINGS = settings(max_examples=60, stateful_step_count=40, derandomize=True, deadline=None)


class DropOldest(ChannelTwins):
    POLICY = OverflowPolicy.DROP_OLDEST


class ErrorOnFull(ChannelTwins):
    POLICY = OverflowPolicy.ERROR


class Grow(ChannelTwins):
    POLICY = OverflowPolicy.GROW


DropOldest.TestCase.settings = ErrorOnFull.TestCase.settings = Grow.TestCase.settings = SETTINGS
TestDropOldest = DropOldest.TestCase
TestErrorOnFull = ErrorOnFull.TestCase
TestGrow = Grow.TestCase
