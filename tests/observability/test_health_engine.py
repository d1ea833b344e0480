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
from repro.observability.slo import HealthAlert
from repro.telemetry import Tracer


def records_of(tracer, kind):
    return [r for r in tracer.records() if isinstance(r, dict) and r["kind"] == kind]


def make_engine(spec=None, aggregates=None, clock=None, log=None):
    """An engine whose alerts go to its tracer's run log (or to *log*: the
    one a crashed engine's successor shares)."""
    tracer = Tracer(clock=clock or (lambda: 0.0), log=log)
    spec = spec or ObservabilitySpec(
        eval_every=5.0,
        slos=(SloSpec(metric="plan.response", stat="p95", op="LT", threshold=10.0),),
    )
    engine = HealthEngine(spec, tracer=tracer, workflow_id="WF", aggregates=aggregates,
                          log=tracer.log)
    return engine, tracer


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


class TestAlerting:
    def test_slo_violation_fires_and_lands_everywhere(self):
        engine, tracer = make_engine()
        tracer.metrics.histogram("plan.response").observe(50.0)
        alerts = engine.tick(0.0)
        assert len(alerts) == 1 and alerts[0].kind == "firing"
        assert engine.alerts == alerts
        assert engine.firing_count() == 1
        assert engine.firing_sources() == ["slo:plan.response.p95"]
        # The transition is one run-log record, counted, and no trace point.
        assert tracer.log.of_type(HealthAlert) == alerts
        assert tracer.metrics.counter("event.health.alert").value == 1
        assert records_of(tracer, "point") == []
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

        # The alerts are not engine state: they stay in the run log, which
        # the clone (a crashed engine's successor) reads.
        state = engine.state_dict()
        assert "alerts" not in state
        clone, _ = make_engine(spec=self.spec(), log=tracer.log)
        clone.bind_source()
        clone.load_state_dict(state)
        assert clone.evaluations == engine.evaluations
        assert clone.alerts == engine.alerts and len(clone.alerts) == 1
        assert clone.firing_count() == engine.firing_count()
        assert clone.state_dict() == state
        # An older journal's copy of the history is ignored.
        clone.load_state_dict({**state, "alerts": [a.to_dict() for a in engine.alerts]})
        assert clone.state_dict() == state and len(clone.alerts) == 1

    def test_resumed_engine_does_not_double_fire(self):
        engine, tracer = make_engine(spec=self.spec())
        tracer.metrics.histogram("plan.response").observe(50.0)
        engine.tick(0.0)
        assert len(engine.alerts) == 1

        clone, clone_tracer = make_engine(spec=self.spec(), log=tracer.log)
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

    def test_an_older_state_with_a_snapshot_schedule_loads(self):
        engine, _ = make_engine(spec=self.spec())
        engine.tick(0.0)
        state = engine.state_dict()
        clone, _ = make_engine(spec=self.spec())
        clone.load_state_dict({**state, "snapshot": {"next": 10.0, "emitted": 1}})
        assert clone.state_dict() == state and "snapshot" not in state
