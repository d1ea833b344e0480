"""Metrics registry: counters, gauges, and bucketed latency histograms.

The control loop records *what happened how often* (counters), *the
current level of something* (gauges), and *how long stage work took*
(latency histograms with p50/p95/p99 estimates).  Everything is plain
Python on purpose: metric recording sits on the orchestration hot path,
so each instrument is a tiny object with O(1) updates, and the disabled
path (:class:`NullMetrics`) is a handful of shared no-op singletons.
"""

from __future__ import annotations

import bisect
import math
from typing import Any

from repro.errors import TelemetryError

# Log-spaced 1-2.5-5 bucket bounds from 1 ms to 2000 s: wide enough for
# both wall-clock stage costs (sub-millisecond) and simulated response
# times (the paper's 107 s adjustments).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0**e for e in range(-3, 4) for m in (1.0, 2.5, 5.0)
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, free cores, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class LatencyHistogram:
    """Bucketed latency distribution with percentile estimation.

    Observations land in fixed buckets (``bounds[i-1] < v <= bounds[i]``,
    with an overflow bucket past the last bound).  Percentiles are
    interpolated linearly inside the winning bucket and clamped to the
    observed min/max, so narrow distributions don't get smeared to a
    whole bucket's width.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise TelemetryError(f"histogram {name!r}: bucket bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise TelemetryError(f"mean of empty histogram {self.name!r}")
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Estimate the *p*-th percentile (p in [0, 100]) from the buckets."""
        if not 0.0 <= p <= 100.0:
            raise TelemetryError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            raise TelemetryError(f"percentile of empty histogram {self.name!r}")
        rank = p / 100.0 * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - cumulative) / c
                est = lo + frac * (hi - lo)
                return min(max(est, self.min), self.max)
            cumulative += c
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {"type": "histogram", "count": self.count}
        if self.count:
            out.update(
                min=self.min, max=self.max, mean=self.mean,
                p50=self.p50, p95=self.p95, p99=self.p99,
            )
        return out

    def state_dict(self) -> dict[str, Any]:
        """Full (lossless) bucket state, JSON-portable."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
        }


def instrument_stat(inst: Counter | Gauge | LatencyHistogram | None, stat: str) -> float | None:
    """Current *stat* of *inst* as an SLO input, or None when unobservable:
    no instrument, ``value`` of a histogram, a histogram stat of a counter
    or gauge, or anything but ``count`` of an empty histogram."""
    if isinstance(inst, LatencyHistogram):
        if stat == "count":
            return float(inst.count)
        if inst.count == 0 or stat == "value":
            return None
        if stat in ("min", "max", "mean"):
            return float(getattr(inst, stat))
        return inst.percentile(float(stat[1:]))
    if isinstance(inst, (Counter, Gauge)) and stat == "value":
        return float(inst.value)
    return None


class MetricsRegistry:
    """Name → instrument, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> LatencyHistogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = LatencyHistogram(name, buckets)
        return h

    def names(self) -> list[str]:
        return sorted([*self._counters, *self._gauges, *self._histograms])

    def lookup(self, name: str) -> Counter | Gauge | LatencyHistogram | None:
        """The existing instrument called *name*, without creating one."""
        return (
            self._counters.get(name)
            or self._gauges.get(name)
            or self._histograms.get(name)
        )

    def counters(self) -> list[Counter]:
        return [self._counters[n] for n in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        return [self._gauges[n] for n in sorted(self._gauges)]

    def histograms(self) -> list[LatencyHistogram]:
        return [self._histograms[n] for n in sorted(self._histograms)]

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All instruments as one JSON-friendly dict."""
        out: dict[str, dict[str, Any]] = {}
        for group in (self._counters, self._gauges, self._histograms):
            for name, instrument in group.items():
                out[name] = instrument.snapshot()
        return out

    def state_dict(self) -> dict[str, Any]:
        """Lossless, JSON-portable state of every instrument (sorted)."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: self._histograms[n].state_dict() for n in sorted(self._histograms)
            },
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics(MetricsRegistry):
    """Registry whose instruments discard every update."""

    def counter(self, name: str) -> Counter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(  # type: ignore[override]
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> LatencyHistogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
