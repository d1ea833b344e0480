"""Counters, gauges, and latency histograms."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    LatencyHistogram,
    MetricsRegistry,
    NullMetrics,
    instrument_stat,
)


def test_counter_and_gauge_basics():
    reg = MetricsRegistry()
    c = reg.counter("hits")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    g = reg.gauge("depth")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value == 3.0


def test_registry_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.names() == ["a", "g", "h"]


def test_default_buckets_sorted_and_wide():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-3)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(5e3)


def test_histogram_percentiles_interpolate_and_clamp():
    h = LatencyHistogram("lat", buckets=(1.0, 10.0, 100.0))
    for v in (2.0, 3.0, 4.0, 5.0, 6.0):
        h.observe(v)
    assert h.count == 5
    assert h.mean == pytest.approx(4.0)
    # All observations share the (1, 10] bucket: estimates are clamped
    # to the observed [2, 6] range instead of being smeared to 10.
    assert 2.0 <= h.p50 <= 6.0
    assert 2.0 <= h.p99 <= 6.0
    assert h.p50 <= h.p95 <= h.p99


def test_histogram_overflow_bucket():
    h = LatencyHistogram("lat", buckets=(1.0,))
    h.observe(50.0)
    assert h.p99 == pytest.approx(50.0)
    assert h.max == 50.0


def test_histogram_empty_raises():
    h = LatencyHistogram("lat")
    with pytest.raises(TelemetryError):
        _ = h.p50
    with pytest.raises(TelemetryError):
        _ = h.mean


def test_histogram_rejects_bad_buckets_and_percentiles():
    with pytest.raises(TelemetryError):
        LatencyHistogram("bad", buckets=(5.0, 1.0))
    h = LatencyHistogram("lat")
    h.observe(1.0)
    with pytest.raises(TelemetryError):
        h.percentile(101.0)


def test_snapshot_shapes():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.gauge("g").set(7)
    reg.histogram("h").observe(0.5)
    snap = reg.snapshot()
    assert snap["c"] == {"type": "counter", "value": 1.0}
    assert snap["g"]["value"] == 7.0
    assert snap["h"]["count"] == 1
    assert set(snap["h"]) >= {"min", "max", "mean", "p50", "p95", "p99"}


def test_null_metrics_discards_everything():
    null = NullMetrics()
    null.counter("c").inc()
    null.gauge("g").set(9)
    null.histogram("h").observe(1.0)
    assert null.counter("c").value == 0.0
    assert null.histogram("h").count == 0
    assert null.counter("x") is null.histogram("y")  # shared singleton


def test_instrument_stat_is_none_when_unobservable():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.gauge("g").set(7)
    h = reg.histogram("h")
    assert instrument_stat(None, "value") is None
    assert instrument_stat(reg.lookup("c"), "value") == 3.0
    assert instrument_stat(reg.lookup("g"), "value") == 7.0
    # A histogram stat asked of a counter/gauge, and the reverse.
    assert instrument_stat(reg.lookup("c"), "p95") is None
    assert instrument_stat(reg.lookup("g"), "count") is None
    assert instrument_stat(h, "value") is None
    # Empty histogram: only the count is observable.
    assert instrument_stat(h, "count") == 0.0
    for stat in ("min", "max", "mean", "p50", "p95", "p99"):
        assert instrument_stat(h, stat) is None
    h.observe(2.0)
    h.observe(4.0)
    assert instrument_stat(h, "value") is None
    assert instrument_stat(h, "count") == 2.0
    assert instrument_stat(h, "min") == 2.0
    assert instrument_stat(h, "max") == 4.0
    assert instrument_stat(h, "mean") == 3.0
    assert instrument_stat(h, "p50") == h.p50
    assert instrument_stat(h, "p99") == h.p99
