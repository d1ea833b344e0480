"""Host-speed sampling: what makes the timings of a shared sandbox comparable.

The build sandbox is a 2-vCPU guest on a shared host.  Its cores flip
between a fast and a ~1.5x slower state several times a second, and stay
slow for minutes at times (CPU time slows with wall time; the guest sees no
steal).  A 4 s iteration therefore reads anything from 3.5 s to 8.7 s, and
no amount of repeating inside one run averages that away.

So the speed of the host is measured *while* the workload runs.  An interval
timer interrupts the main thread every ``INTERVAL_S``; the handler times a
fixed kernel of interpreter work (dict stores and integer adds, ~0.2 ms,
2 % of the interval).
The samples are evenly spaced in wall time, so the mean of
``REFERENCE_S / sample`` is the time-averaged speed of the host relative to
a reference host on which the kernel takes ``REFERENCE_S``, and

    normalised seconds = (elapsed - time spent in the kernel) x that mean

is what the region would have taken on the reference host.  On twenty
back-to-back iterations in a noisy hour this cut the interquartile spread
of ``synth_monitor`` from 20-24 % to 6 % and of ``campaign_fleet`` from
17 % to 5 %; in a quiet hour it neither helps nor hurts (a floor of ~6 %
per iteration is left that the kernel does not see).  Over ten runs of ten
seeds the medians spread by 3-6 % where the raw ones spread by 3-16 %
(README.md has the table).  ``REFERENCE_S`` is a constant, not a per-run
calibration, because a whole run can sit in the slow state.  Other kernels
(method calls, JSON round trips, a 6 MB memory walk, and their mixes) and
exponents other than 1 were tried and were no better.

Nothing here imports ``repro``: ``__main__`` starts the first region before
any heavy import, so that set-up time is normalised the same way.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.010
# The kernel's time on this sandbox's cores in their fast state, as sampled
# under a running workload, so normalised seconds read as quiet-sandbox
# seconds.  Changing it rescales every timing: re-measure the baseline.
REFERENCE_S = 0.000210

_ITEMS = [(i, str(i)) for i in range(4000)]
_clock = time.perf_counter
_samples: list[float] = []
_running = False


def _kernel(signum=None, frame=None) -> None:
    t0 = _clock()
    table = {}
    total = 0
    for key, text in _ITEMS:
        table[key] = text
        total += key
    _samples.append(_clock() - t0)


@dataclass(frozen=True)
class Speed:
    """Host speed over one region."""

    relative: float  # time-averaged speed; 1.0 = the reference host
    kernel_s: float  # wall time the timer-driven samples took inside the region

    def normalise(self, elapsed: float) -> float:
        """*elapsed* seconds of this region, as seconds on the reference host."""
        return max(elapsed - self.kernel_s, 0.0) * self.relative


def start() -> None:
    """Open a region: one sample now, then one every ``INTERVAL_S``."""
    global _running
    if _running:
        raise RuntimeError("hostspeed: a region is already open")
    _running = True
    _samples.clear()
    signal.signal(signal.SIGALRM, _kernel)
    _kernel()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def cancel() -> None:
    """Abandon an open region, if any: for the way out of a failed pass.

    Left armed, the timer outlives the handler when the interpreter shuts
    down, and the default action of SIGALRM kills the process.
    """
    global _running
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    _running = False


def stop() -> Speed:
    """Close the region; the first and last samples are taken off the clock."""
    global _running
    if not _running:
        raise RuntimeError("hostspeed: no region is open")
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)  # the handler stays: a late SIGALRM is harmless
    inside = sum(_samples[1:])
    _kernel()
    _running = False
    relative = sum(REFERENCE_S / s for s in _samples) / len(_samples)
    return Speed(relative, inside)
