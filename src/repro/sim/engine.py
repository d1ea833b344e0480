"""The discrete-event engine: clock + one ``(time, seq)`` event heap + processes."""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable

from repro.errors import SimTimeError
from repro.sim.events import SimEvent
from repro.sim.process import ProcGen, Process

_heappush = heapq.heappush
_heappop = heapq.heappop
_new_event = object.__new__
_uids = SimEvent._uids


class SimEngine:
    """Owns simulated time and executes events in timestamp order.

    The queue is one heap of ``(time, seq, event)`` entries, one per
    scheduled event.  Events at the same timestamp run in FIFO (schedule)
    order because ``seq`` increases with every push, which keeps
    multi-stage pipelines deterministic.  An explicit ``seq`` (crash
    recovery) sorts into place the same way; an exact ``(time, seq)`` tie
    falls through to :meth:`SimEvent.__lt__`, i.e. creation order.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, SimEvent]] = []
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
        # SimEvent.__init__ and _push inlined: this is the hot path of
        # every sleep, so the event is built and pushed with no Python call.
        ev = _new_event(SimEvent)
        ev.engine = self
        ev.name = name
        ev.callbacks = []
        ev._value = None
        ev._ok = None
        ev._pending = (True, value)
        ev._uid = next(_uids)
        ev.cancelled = False
        ev.heap_time = time = self._now + delay
        self._seq = ev.heap_seq = seq = self._seq + 1
        _heappush(self._heap, (time, seq, ev))
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
        _heappush(self._heap, (time, seq, ev))

    # -- execution ------------------------------------------------------------
    def peek(self) -> float | None:
        """Timestamp of the next pending event, or None when idle."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock reaches *until*.

        Returns the final simulated time.  With ``until`` given, the clock
        is advanced to exactly ``until`` even if the last event fired
        earlier, so back-to-back ``run`` calls compose predictably.  The
        first *live* event past ``until`` stays queued; cancelled entries
        ahead of it are dropped.
        """
        if until is not None and until < self._now:
            raise SimTimeError(f"run(until={until}) is in the past (now={self._now})")
        heap = self._heap
        stop = inf if until is None else until
        while heap:
            entry = _heappop(heap)
            time, _seq, ev = entry
            if ev.cancelled:
                continue
            if time > stop:
                _heappush(heap, entry)
                break
            if time < self._now:
                raise SimTimeError(f"clock would move backwards: {time} < {self._now}")
            self._now = time
            if ev._ok is None and ev._pending is not None:
                # A scheduled (timeout/call_at) event triggers when it fires.
                ev._ok, ev._value = ev._pending
            self.events_executed += 1
            callbacks, ev.callbacks = ev.callbacks, None
            if callbacks:
                for cb in callbacks:
                    cb(ev)
        if until is not None and until > self._now:
            self._now = until
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
