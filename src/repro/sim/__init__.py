"""Deterministic discrete-event simulation kernel.

Everything in the reproduction that the paper measured in wall-clock time
(task launches, graceful terminations, sensor lags, arbitration response
windows) runs on this kernel in *simulated seconds*, which makes every
Gantt chart and response time deterministic and unit-testable.

The kernel is a small coroutine-style engine in the spirit of SimPy:

* :class:`SimEngine` owns the clock and the event heap.
* Processes are Python generators that ``yield`` waitable
  :class:`SimEvent` objects (usually :meth:`SimEngine.timeout`).
* Processes can be interrupted (:class:`Interrupt`), which is how task
  kill signals and node failures propagate.
"""

from repro.sim.events import AllOf, AnyOf, Interrupt, SimEvent
from repro.sim.engine import SimEngine
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import PointEvent, RunLog, Span

__all__ = [
    "SimEngine",
    "SimEvent",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "Process",
    "RngRegistry",
    "RunLog",
    "Span",
    "PointEvent",
]
