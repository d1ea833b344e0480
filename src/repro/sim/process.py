"""Generator-based simulated processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import ProcessError
from repro.sim.events import Interrupt, SimEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimEngine

ProcGen = Generator[SimEvent, Any, Any]


class Process(SimEvent):
    """A running coroutine inside the simulation.

    A process wraps a generator that yields :class:`SimEvent` instances.
    The process itself is a :class:`SimEvent` that succeeds with the
    generator's return value (or fails with its uncaught exception), so
    processes can wait on other processes.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, engine: "SimEngine", gen: ProcGen, name: str = "proc") -> None:
        super().__init__(engine, name)
        self._gen = gen
        self._waiting_on: SimEvent | None = None
        # Kick the process off at the current time.
        start = SimEvent(engine, f"{name}:start")
        start.callbacks.append(lambda _ev: self._resume(None, None))
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op, matching the semantics
        of sending a signal to an already-exited task.
        """
        if self.triggered:
            return
        # Detach from whatever the process was waiting on so a later
        # trigger of that event does not resume us twice.
        wake = SimEvent(self.engine, f"{self.name}:interrupt")
        wake.callbacks.append(lambda _ev: self._resume(None, Interrupt(cause)))
        wake.succeed()

    # ------------------------------------------------------------------ #
    def _resume(self, value: Any, exc: BaseException | None) -> None:
        if self._ok is not None:
            return
        waiting, self._waiting_on = self._waiting_on, None
        if waiting is not None and waiting._ok is None and exc is None:
            # Spurious resume (event no longer relevant); ignore.
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self.fail(err)
            return
        if not isinstance(target, SimEvent):
            self.fail(ProcessError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        self._waiting_on = target
        if target._ok is not None:
            self._on_event(target)
        else:
            target.callbacks.append(self._on_event)

    def _on_event(self, ev: SimEvent) -> None:
        if self._waiting_on is not ev:
            return  # interrupted while waiting; stale wake-up
        if ev._ok:
            self._resume(ev._value, None)
        else:
            self._resume(None, ev._value)
