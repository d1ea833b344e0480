"""Model-based check: ``SimEngine`` fires exactly what a list kept sorted by
``(time, seq)`` says it should, in that order, at those times.

The reference below is that list, kept here, test-only, with the engine's
rules spelled out one entry kind at a time: a call or timeout records its
label, a zero-delay ``succeed`` records its label, a process start runs the
process to its first sleep, a process wake records the sleep it ended (or
nothing, when the process no longer waits on it), an interrupt ends the
process, and a finished process's own event fires with nothing to record.
Every popped live entry counts as one executed event; a cancelled one is
skipped and counts as nothing.

Rules schedule calls and timeouts at fresh and at already-used times,
cancel them, re-register a cancelled one at its own ``(heap_time,
heap_seq)`` (the crash-recovery path, where an exact ``(time, seq)`` tie
is broken by creation order), trigger zero-delay events, spawn sleeping
processes and interrupt them, and run with and without ``until``.  After
every rule the engine and the model agree on the firing order (label,
time), on ``now`` and on ``events_executed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim import Interrupt, SimEngine, SimEvent

DELTAS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])


@dataclass
class Proc:
    """The model of one process: sleep through ``delays``, or stop on an interrupt."""

    label: str
    delays: list[float]
    issued: int = 0  # sleeps started so far
    waiting: int | None = None  # the entry (by creation number) it sleeps on
    finished: bool = False


@dataclass(order=True)
class Entry:
    time: float
    seq: int
    created: int  # creation order: breaks an exact (time, seq) tie; the entry's key
    kind: str = field(compare=False)  # record | start | wake | interrupt | done
    label: str = field(compare=False, default="")
    proc: Proc | None = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)


class ReferenceQueue:
    """The engine as one list sorted by ``(time, seq, creation)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.created = 0
        self.executed = 0
        self.entries: list[Entry] = []
        self.fired: list[tuple[str, float]] = []

    def push(self, time: float, kind: str, label: str = "", proc: Proc | None = None,
             seq: int | None = None) -> Entry:
        if seq is None:
            self.seq += 1
            seq = self.seq
        self.created += 1
        entry = Entry(time, seq, self.created, kind, label, proc)
        self.entries.append(entry)
        self.entries.sort()
        return entry

    def sleep_or_finish(self, proc: Proc) -> None:
        if proc.issued < len(proc.delays):
            entry = self.push(self.now + proc.delays[proc.issued], "wake", proc=proc)
            proc.issued += 1
            proc.waiting = entry.created
        else:
            self.finish(proc)

    def finish(self, proc: Proc) -> None:
        proc.finished, proc.waiting = True, None
        self.push(self.now, "done", proc=proc)

    def run(self, until: float | None = None) -> None:
        while self.entries:
            head = self.entries[0]
            if head.cancelled:
                self.entries.pop(0)
                continue
            if until is not None and head.time > until:
                break
            self.entries.pop(0)
            self.now = head.time
            self.executed += 1
            proc = head.proc
            if head.kind == "record":
                self.fired.append((head.label, self.now))
            elif head.kind == "start":
                self.sleep_or_finish(proc)
            elif head.kind == "wake" and proc.waiting == head.created:
                self.fired.append((f"{proc.label}:{proc.issued - 1}", self.now))
                self.sleep_or_finish(proc)
            elif head.kind == "interrupt" and not proc.finished:
                self.fired.append((f"{proc.label}:int", self.now))
                self.finish(proc)
        if until is not None:
            self.now = max(self.now, until)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.eng = SimEngine()
        self.model = ReferenceQueue()
        self.fired: list[tuple[str, float]] = []
        # Events the rules own, with their model entries: (event, entry).
        self.owned: list[tuple[SimEvent, Entry]] = []
        self.procs: list[tuple[object, Proc]] = []
        self.labels = 0

    def _label(self, prefix: str) -> str:
        self.labels += 1
        return f"{prefix}{self.labels}"

    def _recorder(self, label: str):
        return lambda _ev: self.fired.append((label, self.eng.now))

    def _times_in_use(self) -> list[float]:
        return sorted({e.time for e in self.model.entries if e.time >= self.model.now})

    # -- scheduling ----------------------------------------------------------------
    @rule(delta=DELTAS)
    def call_at_fresh_time(self, delta):
        self._call_at(self.model.now + delta)

    @precondition(lambda self: self._times_in_use())
    @rule(data=st.data())
    def call_at_repeated_time(self, data):
        self._call_at(data.draw(st.sampled_from(self._times_in_use())))

    def _call_at(self, time: float) -> None:
        label = self._label("c")
        ev = self.eng.call_at(time, lambda: self.fired.append((label, self.eng.now)))
        self.owned.append((ev, self.model.push(time, "record", label)))

    @rule(delta=DELTAS)
    def timeout(self, delta):
        label = self._label("t")
        ev = self.eng.timeout(delta)
        ev.callbacks.append(self._recorder(label))
        self.owned.append((ev, self.model.push(self.model.now + delta, "record", label)))

    @rule()
    def succeed_now(self):
        label = self._label("s")
        ev = self.eng.event()
        ev.callbacks.append(self._recorder(label))
        ev.succeed()
        self.owned.append((ev, self.model.push(self.model.now, "record", label)))

    # -- cancellation and crash-recovery re-registration ---------------------------
    def _live(self):
        live = {id(e) for e in self.model.entries if not e.cancelled}
        return [(ev, e) for ev, e in self.owned if id(e) in live]

    def _cancelled(self):
        return [(ev, e) for ev, e in self.owned
                if e.cancelled and ev.heap_time >= self.model.now]

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def cancel(self, data):
        ev, entry = data.draw(st.sampled_from(self._live()))
        ev.cancel()
        entry.cancelled = True

    @precondition(lambda self: self._cancelled())
    @rule(data=st.data())
    def reregister_at_own_slot(self, data):
        old, entry = data.draw(st.sampled_from(self._cancelled()))
        assert (old.heap_time, old.heap_seq) == (entry.time, entry.seq)
        label = self._label("r")
        ev = self.eng.call_at(old.heap_time, lambda: self.fired.append((label, self.eng.now)),
                              seq=old.heap_seq)
        self.owned.append((ev, self.model.push(entry.time, "record", label, seq=entry.seq)))

    # -- processes -----------------------------------------------------------------
    @rule(delays=st.lists(DELTAS, max_size=4))
    def spawn_sleeper(self, delays):
        label = self._label("p")
        eng, fired = self.eng, self.fired

        def sleeper():
            try:
                for i, delay in enumerate(delays):
                    yield eng.timeout(delay)
                    fired.append((f"{label}:{i}", eng.now))
            except Interrupt:
                fired.append((f"{label}:int", eng.now))

        proc = Proc(label, list(delays))
        self.procs.append((eng.process(sleeper()), proc))
        self.model.push(self.model.now, "start", proc=proc)

    @precondition(lambda self: self.procs)
    @rule(data=st.data())
    def interrupt(self, data):
        process, proc = data.draw(st.sampled_from(self.procs))
        process.interrupt("stop")
        if not proc.finished:  # interrupting a finished process schedules nothing
            self.model.push(self.model.now, "interrupt", proc=proc)

    # -- running -------------------------------------------------------------------
    @rule(delta=DELTAS)
    def run_until(self, delta):
        until = self.model.now + delta
        assert self.eng.run(until=until) == until
        self.model.run(until)

    @rule()
    def run_to_the_end(self):
        self.eng.run()
        self.model.run()

    @invariant()
    def agrees_with_the_model(self):
        assert self.fired == self.model.fired
        assert self.eng.now == self.model.now
        assert self.eng.events_executed == self.model.executed
        for process, proc in self.procs:
            assert process.triggered == proc.finished


EngineMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, derandomize=True, deadline=None
)
TestEngineAgainstSortedList = EngineMachine.TestCase
