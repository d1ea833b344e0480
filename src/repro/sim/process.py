"""Generator-based simulated processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

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

    __slots__ = ("_gen", "_waiting_on", "_on_wake")

    def __init__(self, engine: "SimEngine", gen: ProcGen, name: str = "proc") -> None:
        super().__init__(engine, name)
        self._gen = gen
        # Bound once: every wait appends this same callback.
        self._on_wake: Callable[[SimEvent], None] | None = self._wake
        # Kick the process off at the current time.
        start = SimEvent(engine, f"{name}:start")
        start.callbacks.append(self._on_wake)
        self._waiting_on: SimEvent | None = start
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
        wake = SimEvent(self.engine, f"{self.name}:interrupt")
        wake.callbacks.append(self._interrupted)
        wake.fail(Interrupt(cause))

    # ------------------------------------------------------------------ #
    def _trigger(self, ok: bool, value: Any) -> None:
        # Finished: drop the bound callback, so the process is not a cycle.
        self._on_wake = None
        super()._trigger(ok, value)

    def _interrupted(self, wake: SimEvent) -> None:
        # Detach from whatever the process was waiting on, so a later
        # trigger of that event is a stale wake-up, and resume with the
        # interrupt instead.
        self._waiting_on = wake
        self._wake(wake)

    def _wake(self, ev: SimEvent) -> None:
        """Resume the generator with *ev*'s outcome: the one resume routine."""
        if self._waiting_on is not ev or self._ok is not None:
            return  # interrupted while waiting (stale wake-up), or finished
        self._waiting_on = None
        try:
            if ev._ok:
                target = self._gen.send(ev._value)
            else:
                target = self._gen.throw(ev._value)
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
            self._wake(target)
        else:
            target.callbacks.append(self._on_wake)
