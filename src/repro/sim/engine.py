"""The discrete-event engine: clock + slot-indexed event queue + processes."""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimTimeError
from repro.sim.events import SimEvent
from repro.sim.process import ProcGen, Process


class _Slot:
    """All events scheduled at one timestamp, in sequence order.

    Entries are ``(seq, event)`` pairs.  Auto-assigned sequence numbers
    are monotonically increasing, so the common case is a plain append;
    only an explicit-``seq`` registration (crash recovery re-creating a
    callback at its journaled slot) can land out of order, which marks
    the slot dirty and triggers a sort of the undrained tail on the next
    pop.  ``head`` is the drain cursor — callbacks firing at the current
    timestamp append behind it and run in the same engine step loop,
    exactly as they would have popped from a global heap.
    """

    __slots__ = ("entries", "head", "dirty")

    def __init__(self) -> None:
        self.entries: list[tuple[int, SimEvent]] = []
        self.head = 0
        self.dirty = False

    def add(self, seq: int, ev: SimEvent) -> None:
        entries = self.entries
        if entries and seq < entries[-1][0]:
            self.dirty = True
        entries.append((seq, ev))


class SimEngine:
    """Owns simulated time and executes events in timestamp order.

    Events scheduled at the same timestamp run in FIFO (schedule) order,
    which keeps multi-stage pipelines deterministic.  The queue is
    slot-indexed: a heap orders the distinct timestamps, and each
    timestamp's events live in an append-ordered list — scheduling onto
    an existing timestamp is O(1) instead of an O(log n) heap push,
    which is the dominant case in lockstep scenarios (thousands of
    same-tick timeouts and deliveries).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._times: list[float] = []  # heap of distinct timestamps
        self._slots: dict[float, _Slot] = {}
        self._seq = 0
        #: Count of live (non-cancelled) events executed — throughput
        #: telemetry for the core benchmark; never journaled.
        self.events_executed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction -------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create an untriggered waitable event."""
        return SimEvent(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> SimEvent:
        """An event that succeeds ``delay`` seconds from now."""
        if delay < 0:
            raise SimTimeError(f"negative timeout {delay}")
        ev = SimEvent(self, name)
        ev._pending = (True, value)
        self._push(self._now + delay, ev)
        return ev

    def process(self, gen: ProcGen, name: str = "proc") -> Process:
        """Spawn *gen* as a process starting at the current time."""
        return Process(self, gen, name)

    def call_at(
        self,
        time: float,
        fn: Callable[[], None],
        name: str = "call",
        seq: int | None = None,
    ) -> SimEvent:
        """Run ``fn()`` at absolute simulated *time*.

        ``seq`` re-registers the call at an explicit heap slot (crash
        recovery: a resumed controller re-creates its pending callbacks at
        their original sequence numbers so same-timestamp tie-breaking is
        bit-identical to an uninterrupted run).
        """
        if time < self._now:
            raise SimTimeError(f"call_at({time}) is in the past (now={self._now})")
        ev = SimEvent(self, name)
        ev.callbacks.append(lambda _ev: fn())
        ev._pending = (True, None)
        self._push(time, ev, seq=seq)
        return ev

    def call_after(self, delay: float, fn: Callable[[], None], name: str = "call") -> SimEvent:
        """Run ``fn()`` *delay* seconds from now."""
        return self.call_at(self._now + delay, fn, name)

    # -- scheduling internals ------------------------------------------------
    def _schedule_event(self, ev: SimEvent) -> None:
        """Queue an already-triggered event's callbacks to run *now*."""
        self._push(self._now, ev)

    def _push(self, time: float, ev: SimEvent, seq: int | None = None) -> None:
        if seq is None:
            self._seq += 1
            seq = self._seq
        ev.heap_time = time
        ev.heap_seq = seq
        slot = self._slots.get(time)
        if slot is None:
            slot = self._slots[time] = _Slot()
            heapq.heappush(self._times, time)
        slot.add(seq, ev)

    # -- execution ------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event; return False when the queue is empty."""
        times, slots = self._times, self._slots
        while times:
            time = times[0]
            slot = slots[time]
            entries = slot.entries
            while True:
                if slot.dirty:
                    tail = entries[slot.head:]
                    tail.sort()
                    entries[slot.head:] = tail
                    slot.dirty = False
                if slot.head >= len(entries):
                    del slots[time]
                    heapq.heappop(times)
                    break
                _seq, ev = entries[slot.head]
                slot.head += 1
                if ev.cancelled:
                    continue
                if time < self._now:
                    raise SimTimeError(f"clock would move backwards: {time} < {self._now}")
                self._now = time
                if ev._ok is None and ev._pending is not None:
                    # A scheduled (timeout/call_at) event triggers when it fires.
                    ev._ok, ev._value = ev._pending
                self.events_executed += 1
                ev._run_callbacks()
                # Drop the slot the moment it drains (callbacks may have
                # appended same-time events — then it stays), so `peek`
                # and `run(until)` never see a spent timestamp: the old
                # global heap popped entries eagerly and `heap[0]` was
                # always a still-pending event.
                if slot.head >= len(entries) and not slot.dirty:
                    del slots[time]
                    heapq.heappop(times)
                return True
        return False

    def peek(self) -> float | None:
        """Timestamp of the next pending event, or None when idle."""
        return self._times[0] if self._times else None

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock reaches *until*.

        Returns the final simulated time.  With ``until`` given, the clock
        is advanced to exactly ``until`` even if the last event fired
        earlier, so back-to-back ``run`` calls compose predictably.
        """
        if until is not None and until < self._now:
            raise SimTimeError(f"run(until={until}) is in the past (now={self._now})")
        while self._times:
            nxt = self._times[0]
            if until is not None and nxt > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def run_process(self, gen: ProcGen, name: str = "proc") -> Any:
        """Spawn *gen*, run the simulation to completion, return its value.

        Convenience for tests and small examples.
        """
        proc = self.process(gen, name)
        self.run()
        if not proc.triggered:
            raise SimTimeError(f"process {name!r} never finished (deadlock?)")
        if not proc.ok:
            raise proc.value
        return proc.value
