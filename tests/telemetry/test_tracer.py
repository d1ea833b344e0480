"""Tracer spans: nesting, sampling, dual clocks, the run's records, and the null twin."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    TelemetrySpec,
    Tracer,
    build_tracer,
)
from repro.telemetry.tracer import _DROPPED


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_span_context_manager_records_and_times():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("tick", "loop", n=3) as span:
        clock.now = 2.5
    assert span.end == 2.5
    assert span.duration == 2.5
    assert span.wall_duration >= 0.0
    assert span.attrs == {"n": 3}
    assert tracer.finished_spans("tick", "loop") == [span]


def test_nesting_via_with_blocks():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert tracer.current_span() is inner
        assert tracer.current_span() is outer
    assert inner.parent_id == outer.span_id
    assert tracer.children_of(outer) == [inner]
    assert tracer.current_span() is None


def test_start_span_defaults_parent_to_current_with_span():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer") as outer:
        child = tracer.start_span("work")
        tracer.end_span(child, ok=True)
    assert child.parent_id == outer.span_id
    assert child.attrs == {"ok": True}


def test_end_span_is_idempotent_and_records_histogram():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    span = tracer.start_span("job")
    clock.now = 4.0
    tracer.end_span(span)
    clock.now = 9.0
    tracer.end_span(span)  # second close must not re-stamp
    assert span.end == 4.0
    hist = tracer.metrics.histogram("span.job")
    assert hist.count == 1
    assert hist.max == pytest.approx(4.0)


def test_open_span_duration_raises():
    tracer = Tracer(clock=FakeClock())
    span = tracer.start_span("open")
    assert span.open
    with pytest.raises(TelemetryError):
        _ = span.duration


def test_add_span_records_pre_timed_interval():
    tracer = Tracer(clock=FakeClock())
    root = tracer.start_span("plan")
    op = tracer.add_span("op.stop", "actuation", start=10.0, end=14.0,
                         parent=root, task="FFT")
    assert op.duration == 4.0
    assert op.parent_id == root.span_id
    assert op.attrs == {"task": "FFT"}
    assert tracer.metrics.histogram("span.op.stop").count == 1


def test_end_span_ignores_the_null_span():
    tracer = Tracer(clock=FakeClock())
    tracer.end_span(_DROPPED, extra=1)
    assert _DROPPED.attrs == {}  # the shared sentinel is never mutated
    assert tracer.records() == []


def test_point_events_count_and_log():
    clock = FakeClock()
    tracer = Tracer(clock=clock)  # points are kept with no JSONL path too
    clock.now = 3.0
    tracer.point("node_failure", "failure", node="n4")
    assert tracer.metrics.counter("event.node_failure").value == 1.0
    [record] = [r for r in tracer.records() if isinstance(r, dict) and r["kind"] == "point"]
    assert record["time"] == 3.0
    assert record["attrs"] == {"node": "n4"}


def test_finished_spans_sorted_by_start():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    clock.now = 5.0
    late = tracer.start_span("a")
    tracer.end_span(late)
    clock.now = 1.0
    early = tracer.start_span("a")
    tracer.end_span(early)
    assert tracer.finished_spans("a") == [early, late]


def test_jsonl_log_flush_to_file(tmp_path):
    path = str(tmp_path / "events.jsonl")
    tracer = Tracer(clock=FakeClock(), path=path)
    with tracer.span("tick"):
        pass
    tracer.flush()
    tracer.flush()  # second flush appends nothing new
    lines = [ln for ln in open(path, encoding="utf-8").read().splitlines() if ln]
    assert len(lines) == 1
    assert '"kind":"span"' in lines[0]


def test_null_tracer_is_inert():
    null = NullTracer()
    assert not null.enabled
    with null.span("anything") as span:
        assert span is _DROPPED
    assert null.start_span("x") is _DROPPED
    assert null.add_span("y", start=0, end=1) is _DROPPED
    null.end_span(_DROPPED)
    null.point("p")
    assert null.spans == []
    assert null.finished_spans() == []
    assert null.current_span() is None
    assert null.metrics.counter("c").value == 0.0


def test_build_tracer_from_spec():
    assert build_tracer(None) is NULL_TRACER
    clock = FakeClock()
    tracer = build_tracer(TelemetrySpec(jsonl_path="run.jsonl"), clock=clock)
    assert tracer.enabled
    assert tracer.path == "run.jsonl"
    assert tracer.clock is clock


def test_default_clock_is_relative_wall_time():
    tracer = Tracer()
    with tracer.span("t") as span:
        pass
    assert span.start >= 0.0
    assert span.duration >= 0.0


def read_lines(path):
    return [json.loads(ln) for ln in open(path, encoding="utf-8").read().splitlines() if ln]


def test_records_hold_spans_by_reference_in_emission_order():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer") as outer:
        clock.now = 1.0
        tracer.point("p", "event", k=1)
        with tracer.span("inner") as inner:
            clock.now = 2.0
    tracer.record("metrics", 2.0, metrics={})
    point, first, second, metrics = tracer.records()
    assert point == {"kind": "point", "time": 1.0, "name": "p",
                     "category": "event", "attrs": {"k": 1}}
    assert first is inner and second is outer  # closing order, not start order
    assert metrics == {"kind": "metrics", "time": 2.0, "metrics": {}}


def test_a_flushed_span_line_is_its_to_dict_under_kind_and_time(tmp_path):
    path = str(tmp_path / "events.jsonl")
    clock = FakeClock()
    tracer = Tracer(clock=clock, path=path)
    span = tracer.start_span("job", "wms", task="A")
    clock.now = 4.0
    tracer.end_span(span)
    tracer.flush()
    [line] = read_lines(path)
    assert line == {"kind": "span", "time": 4.0, **span.to_dict()}


def test_a_reused_jsonl_path_holds_one_run(tmp_path):
    # The first flush replaces the file; a second run into the same path
    # must not append to the first (its report would count both runs).
    path = str(tmp_path / "events.jsonl")
    for _run in range(2):
        tracer = build_tracer(TelemetrySpec(jsonl_path=path), clock=FakeClock())
        tracer.point("run.allocation", "wms", nodes={"n1": 4})
        tracer.flush()
    assert [r["name"] for r in read_lines(path)] == ["run.allocation"]
    # ... while later flushes of one tracer append what is new.
    tracer.point("wms.task-end", "wms")
    tracer.flush()
    assert [r["name"] for r in read_lines(path)] == ["run.allocation", "wms.task-end"]


def test_null_tracer_records_nothing():
    NULL_TRACER.record("metrics", 1.0, metrics={})
    NULL_TRACER.point("p")
    assert NULL_TRACER.records() == []
