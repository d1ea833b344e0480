"""Waitable events for the simulation kernel."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimEngine


class Interrupt(Exception):
    """Thrown into a process when it is interrupted.

    The ``cause`` is whatever the interrupter supplied — in this library
    usually a signal name such as ``"SIGTERM"`` or a failure record.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class SimEvent:
    """A one-shot waitable event.

    A process waits by ``yield``-ing the event; when the event *succeeds*
    (or *fails*) every waiting process is resumed at the current simulation
    time.  Events may only be triggered once.
    """

    __slots__ = (
        "engine", "name", "callbacks", "_value", "_ok", "_pending", "_uid",
        "cancelled", "heap_time", "heap_seq",
    )

    _uids = itertools.count()

    def __init__(self, engine: "SimEngine", name: str = "") -> None:
        # SimEngine.timeout sets these same slots without calling this
        # method (the hot path of every sleep): keep the two in step.
        self.engine = engine
        self.name = name
        self.callbacks: list[Callable[["SimEvent"], None]] | None = []
        self._value: Any = None
        self._ok: bool | None = None
        # For engine-scheduled events (timeouts): (ok, value) applied when
        # the event fires, so `triggered` stays False until then.
        self._pending: tuple[bool, Any] | None = None
        self._uid = next(SimEvent._uids)
        self.cancelled = False
        # Heap placement of the most recent engine push — lets crash
        # recovery re-register an equivalent event at the exact same
        # (time, seq) slot so tie-breaking stays bit-identical.
        self.heap_time: float | None = None
        self.heap_seq: int | None = None

    def __lt__(self, other: "SimEvent") -> bool:
        # Heap tuples only reach the event on an exact (time, seq) tie,
        # which happens when a cancelled event is re-registered at its old
        # slot; creation order keeps that comparison deterministic.
        return self._uid < other._uid

    def cancel(self) -> None:
        """Mark a scheduled event dead; the engine skips it when popped."""
        self.cancelled = True

    # -- state --------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimError(f"event {self.name!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._ok is None:
            raise SimError(f"event {self.name!r} not yet triggered")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        """Mark the event successful and schedule waiter resumption now."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Mark the event failed; waiters will have *exc* thrown into them."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._ok is not None:
            raise SimError(f"event {self.name!r} already triggered")
        self._ok = ok
        self._value = value
        self.engine._schedule_event(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<SimEvent {self.name!r} {state}>"


class AnyOf(SimEvent):
    """Succeeds as soon as any child event triggers.

    Value is ``(index, child.value)`` of the first child to trigger.  A
    failed child fails the composite.
    """

    __slots__ = ("_children",)

    def __init__(self, engine: "SimEngine", events: list[SimEvent], name: str = "any") -> None:
        super().__init__(engine, name)
        if not events:
            raise SimError("AnyOf requires at least one event")
        self._children = list(events)
        for i, ev in enumerate(self._children):
            if ev.triggered:
                self._on_child(i, ev)
                break
            ev.callbacks.append(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, index: int, ev: SimEvent) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed((index, ev.value))
        else:
            self.fail(ev.value)


class AllOf(SimEvent):
    """Succeeds when every child event has succeeded.

    Value is the list of child values in input order.  A failed child fails
    the composite immediately.
    """

    __slots__ = ("_children",)

    def __init__(self, engine: "SimEngine", events: list[SimEvent], name: str = "all") -> None:
        super().__init__(engine, name)
        self._children = list(events)
        self._pending = 0
        for ev in self._children:
            if ev.triggered:
                if not ev.ok:
                    self.fail(ev.value)
                    return
                continue
            self._pending += 1
            ev.callbacks.append(self._on_child)
        if self._pending == 0 and not self.triggered:
            self.succeed([ev.value for ev in self._children])

    def _on_child(self, ev: SimEvent) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._children])
