"""The health engine: evaluation cadence, sensor feed, crash-state."""

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    HEALTH_TASK,
    AnomalySpec,
    HealthEngine,
    ObservabilitySpec,
    SloSpec,
)
from repro.observability.snapshot import MetricsSnapshotter
from repro.telemetry import NULL_TRACER, Tracer


def records_of(tracer, kind):
    return [r for r in tracer.records() if isinstance(r, dict) and r["kind"] == kind]


def make_engine(spec=None, aggregates=None, clock=None):
    tracer = Tracer(clock=clock or (lambda: 0.0))
    spec = spec or ObservabilitySpec(
        eval_every=5.0,
        slos=(SloSpec(metric="plan.response", stat="p95", op="LT", threshold=10.0),),
    )
    return HealthEngine(spec, tracer=tracer, workflow_id="WF", aggregates=aggregates), tracer


class TestCadence:
    def test_evaluates_on_the_spec_cadence_only(self):
        engine, _ = make_engine()
        engine.tick(0.0)
        assert engine.evaluations == 1
        engine.tick(1.0)
        engine.tick(4.9)
        assert engine.evaluations == 1  # not yet due
        engine.tick(5.0)
        assert engine.evaluations == 2

    def test_a_late_tick_runs_one_evaluation_not_a_backlog(self):
        engine, _ = make_engine()
        engine.tick(0.0)
        engine.tick(42.0)  # 8 periods late
        assert engine.evaluations == 2
        engine.tick(44.9)
        assert engine.evaluations == 2  # next due at 45

    def test_disabled_spec_is_inert(self):
        engine, _ = make_engine(spec=ObservabilitySpec(enabled=False))
        assert engine.tick(0.0) == []
        assert engine.evaluations == 0


class TestAlerting:
    def test_slo_violation_fires_and_lands_everywhere(self):
        engine, tracer = make_engine()
        tracer.metrics.histogram("plan.response").observe(50.0)
        alerts = engine.tick(0.0)
        assert len(alerts) == 1 and alerts[0].kind == "firing"
        assert engine.alerts == alerts
        assert engine.firing_count() == 1
        assert engine.firing_sources() == ["slo:plan.response.p95"]
        # The transition is also a JSONL trace point and a gauge.
        points = [r for r in records_of(tracer, "point") if r["name"] == "health.alert"]
        assert len(points) == 1
        assert points[0]["attrs"]["kind"] == "firing"
        assert tracer.metrics.gauge("health.firing").value == 1.0

    def test_unobserved_metrics_never_alert(self):
        engine, _ = make_engine()
        assert engine.tick(0.0) == []
        assert engine.firing_count() == 0


class TestSensorFeed:
    def aggregates(self):
        return {"utilization": 0.75, "quarantine.count": 1.0}

    def test_nothing_is_published_without_a_bound_source(self):
        engine, _ = make_engine(aggregates=self.aggregates)
        engine.tick(0.0)
        assert engine.read_feed(0) == ([], 0)

    def test_bound_source_sees_aggregates_slo_values_and_alert_states(self):
        engine, tracer = make_engine(aggregates=self.aggregates)
        source = engine.bind_source()
        tracer.metrics.histogram("plan.response").observe(50.0)
        engine.tick(0.0)
        samples = source.poll(0.0)
        by_var = {s.var: s.value for s in samples}
        assert by_var["utilization"] == 0.75
        assert by_var["quarantine.count"] == 1.0
        assert by_var["plan.response.p95"] == 50.0
        assert by_var["alert.plan.response.p95"] == 1.0
        assert all(s.task == HEALTH_TASK and s.rank == -1 for s in samples)

    def test_var_filter_narrows_the_stream(self):
        engine, _ = make_engine(aggregates=self.aggregates)
        source = engine.bind_source(var="utilization")
        engine.tick(0.0)
        samples = source.poll(0.0)
        assert [s.var for s in samples] == ["utilization"]

    def test_sources_bound_late_start_at_the_feed_tip(self):
        engine, _ = make_engine(aggregates=self.aggregates)
        first = engine.bind_source()
        engine.tick(0.0)
        late = engine.bind_source()
        assert late.poll(0.0) == []  # nothing before its bind instant
        assert len(first.poll(0.0)) > 0

    def test_consumed_entries_are_trimmed_but_cursors_stay_absolute(self):
        engine, _ = make_engine(aggregates=self.aggregates)
        source = engine.bind_source()
        engine.tick(0.0)
        n = len(source.poll(0.0))
        assert n > 0
        engine.tick(5.0)  # trims the consumed prefix before publishing
        assert engine._base == n
        more = source.poll(5.0)
        assert len(more) == n  # same families every evaluation

    def test_cursor_state_round_trips(self):
        engine, _ = make_engine(aggregates=self.aggregates)
        source = engine.bind_source()
        engine.tick(0.0)
        source.poll(0.0)
        state = source.cursor_state()
        fresh = engine.bind_source()
        fresh.restore_cursor(state)
        assert fresh.poll(0.0) == []

    def test_read_lag_is_zero(self):
        engine, _ = make_engine()
        assert engine.bind_source().read_lag(None) == 0.0


class TestCrashState:
    def spec(self):
        return ObservabilitySpec(
            eval_every=5.0,
            slos=(SloSpec(metric="plan.response", stat="p95", op="LT", threshold=10.0),),
            anomalies=(AnomalySpec(metric="loop.ticks", stat="value", min_points=2),),
        )

    def test_state_round_trip_restores_everything(self):
        engine, tracer = make_engine(spec=self.spec())
        engine.bind_source()
        tracer.metrics.histogram("plan.response").observe(50.0)
        engine.tick(0.0)
        engine.tick(5.0)

        clone, _ = make_engine(spec=self.spec())
        clone.bind_source()
        clone.load_state_dict(engine.state_dict())
        assert clone.evaluations == engine.evaluations
        assert clone.alerts == engine.alerts
        assert clone.firing_count() == engine.firing_count()
        assert clone.state_dict() == engine.state_dict()

    def test_resumed_engine_does_not_double_fire(self):
        engine, tracer = make_engine(spec=self.spec())
        tracer.metrics.histogram("plan.response").observe(50.0)
        engine.tick(0.0)
        assert len(engine.alerts) == 1

        clone, clone_tracer = make_engine(spec=self.spec())
        clone_tracer.metrics.histogram("plan.response").observe(50.0)
        clone.load_state_dict(engine.state_dict())
        # Replaying the same instant is a no-op (next eval is at t=5).
        assert clone.tick(0.0) == []
        assert len(clone.alerts) == 1

    def test_spec_mismatch_is_rejected(self):
        engine, _ = make_engine(spec=self.spec())
        engine.tick(0.0)
        other, _ = make_engine()  # one SLO, zero anomaly detectors
        with pytest.raises(ObservabilityError, match="does not match"):
            other.load_state_dict(engine.state_dict())


class TestSnapshotter:
    def test_disabled_without_cadence_or_log(self):
        tracer = Tracer(clock=lambda: 0.0)  # no JSONL path needed
        assert not MetricsSnapshotter(NULL_TRACER, 5.0).enabled
        assert not MetricsSnapshotter(tracer, 0.0).enabled
        assert MetricsSnapshotter(tracer, 5.0).enabled

    def test_emits_on_cadence_with_sequence_numbers(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.metrics.counter("plans.created").inc()
        snap = MetricsSnapshotter(tracer, 10.0)
        assert snap.maybe_snapshot(0.0)
        assert not snap.maybe_snapshot(3.0)
        assert snap.maybe_snapshot(10.0)
        records = records_of(tracer, "metrics")
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["metrics"]["plans.created"]["value"] == 1.0

    def test_state_round_trip_preserves_the_schedule(self):
        tracer = Tracer(clock=lambda: 0.0)
        snap = MetricsSnapshotter(tracer, 10.0)
        snap.maybe_snapshot(0.0)
        clone = MetricsSnapshotter(tracer, 10.0)
        clone.load_state_dict(snap.state_dict())
        assert not clone.maybe_snapshot(5.0)  # next is still t=10
        assert clone.maybe_snapshot(10.0)
        assert clone.emitted == 2
