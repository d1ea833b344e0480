"""Determinism: same seed ⇒ byte-identical reports, identical alerts.

The crash-recovery half re-runs the Gray-Scott scenario with controller
crashes and verifies the resumed run emits *exactly* the alert sequence
of an uninterrupted reference — the health state rides the journal, so
WAL replay must never double-fire an alert.
"""

import pytest

from repro.experiments import run_gray_scott_experiment
from repro.journal import JournalSpec, scenario_fingerprint
from repro.observability import AnomalySpec, ObservabilitySpec, SloSpec
from repro.sim.trace import as_record
from repro.telemetry import TelemetrySpec
from repro.telemetry.tracer import TraceSpan


def obs_spec(**kw):
    return ObservabilitySpec(
        eval_every=5.0,
        slos=(
            SloSpec(metric="plan.response", stat="p95", op="LT", threshold=10.0),
        ),
        anomalies=(
            AnomalySpec(metric="stage.monitor.latency", stat="p95", window=20, z=4.0),
        ),
        **kw,
    )


def run(tmp_dir=None, **kw):
    spec = obs_spec(
        report_path=str(tmp_dir / "report.md"),
        report_json_path=str(tmp_dir / "report.json"),
        openmetrics_path=str(tmp_dir / "metrics.prom"),
    ) if tmp_dir is not None else obs_spec()
    return run_gray_scott_experiment("summit", use_dyflow=True,
                                     telemetry=TelemetrySpec(),
                                     observability=spec, **kw)


class TestSameSeedDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        run(a, seed=0)
        run(b, seed=0)
        for name in ("report.md", "report.json", "metrics.prom"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (
                f"{name} differs across same-seed runs"
            )

    def test_alert_sequences_are_identical(self):
        first = run().meta["health_alerts"]
        second = run().meta["health_alerts"]
        assert first, "the scenario never produced a health alert"
        assert first == second


class TestCrashResumeDeterminism:
    CRASH_TIMES = (300.0, 700.0)

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        journal = JournalSpec(
            dir=str(tmp_path_factory.mktemp("wal") / "journal"), fsync="off"
        )
        ref = run(crash_times=self.CRASH_TIMES, ignore_crash_requests=True)
        res = run(journal=journal, crash_times=self.CRASH_TIMES)
        return ref, res

    def test_resumed_run_emits_exactly_the_reference_alerts(self, pair):
        ref, res = pair
        assert res.meta["crashes"] == list(self.CRASH_TIMES)
        assert ref.meta["health_alerts"], "reference run produced no alerts"
        assert res.meta["health_alerts"] == ref.meta["health_alerts"]

    def test_no_alert_double_fires_across_wal_replay(self, pair):
        _, res = pair
        alerts = res.meta["health_alerts"]
        identities = [(a.time, a.source, a.kind) for a in alerts]
        assert len(identities) == len(set(identities))
        # Transitions per source must alternate firing/clearing.
        by_source = {}
        for a in alerts:
            by_source.setdefault(a.source, []).append(a.kind)
        for source, kinds in by_source.items():
            for prev, cur in zip(kinds, kinds[1:]):
                assert prev != cur, f"{source} emitted consecutive {cur!r} alerts"

    def test_the_run_itself_stays_bit_identical(self, pair):
        ref, res = pair
        assert res.makespan == ref.makespan
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)

    def test_the_run_log_is_the_reference_log_record_for_record(self, pair):
        """Exactly once across a crash: the crashed run's log, less its
        journal-category points and its telemetry (spans, and the metrics
        snapshot, whose journal families only it has), is the reference's
        — every Gantt record, metric update, alert and outcome, in order."""
        ref, res = pair

        def run_records(result):
            return [
                as_record(r) for r in result.launcher.log.records()
                if not isinstance(r, TraceSpan) and getattr(r, "category", None) != "journal"
                and not (type(r) is dict and r["kind"] == "metrics")
            ]

        kept = run_records(ref)
        assert {r["kind"] for r in kept} >= {"outcome", "alert", "update", "gantt-span"}
        assert run_records(res) == kept
