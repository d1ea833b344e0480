"""TAU-like online profiler substrate.

The paper's PACE sensor consumes "TAU-generated information ... collected
in real-time using ADIOS2" — per-process main-loop times produced by code
instrumentation, streamed while the task runs.  This package provides:

* :class:`TaskProfiler` — per-task instrumentation that publishes
  per-rank, per-step measurement samples into a staging stream channel.
* :class:`CounterModel` — hardware-counter models (instructions, cycles)
  so joined sensors can compute IPC, the paper's example of a complex
  metric built from multiple inputs.

Profiling the orchestrator itself is not this package's job: the
per-layer attribution tool is ``python3 -m perfbench --trace 1``.
"""

from repro.profiler.instrument import TaskProfiler
from repro.profiler.counters import CounterModel

__all__ = ["TaskProfiler", "CounterModel"]
