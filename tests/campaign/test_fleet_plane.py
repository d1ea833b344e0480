"""The campaign fleet plane: watch stream, fleet rollups, WAL barriers.

The acceptance proof lives here: with the fleet observability plane
enabled, a supervisor crash mid-campaign resumes with the watch stream
**byte-identical** and the fleet rollup **bit-identical** to an
uncrashed control campaign.  The stream is the plane's one history: the
rollup and the alert lists are its fold, and the fleet WAL barriers hold
only the controller state (clock, breaker, SLO streaks).
"""

import json

import pytest

from repro.campaign import (
    CampaignService,
    ExecutorSpec,
    TenantCell,
    TenantSpec,
    TenantsSpec,
)
from repro.errors import JournalError, ReproError
from repro.journal import read_journal
from repro.journal.delta import apply_delta
from repro.journal.wal import encode_record, read_segment, segment_path
from repro.observability import (
    EVENT_KINDS,
    FleetHealthEngine,
    FleetSpec,
    ObservabilitySpec,
    SloSpec,
    parse_openmetrics,
    read_watch_stream,
)
from repro.resilience import QuarantineSpec
from tests.campaign.test_service import fake_run, failing_for_alice, wf_factory


def make_spec(*tenants, nodes=4, cores_per_node=4):
    return TenantsSpec(
        nodes=nodes, cores_per_node=cores_per_node,
        tenants=tenants or (TenantSpec("alice"), TenantSpec("bob")),
        executor=ExecutorSpec(max_attempts=2, backoff_base=0.0, jitter=0.0),
        breaker=QuarantineSpec(failures=3, window=100.0, cooldown=5.0),
    )


THREE_TENANTS = (TenantSpec("alice"), TenantSpec("bob"), TenantSpec("carol"))

#: A tenant-scoped objective that fires on bob's first completed cell
#: (fake_run cells record latency 0.0, which never satisfies GT 0).
BOB_SLO = SloSpec(metric="fleet.cell.latency", stat="p95", op="GT",
                  threshold=0.0, severity="warning", tenant="bob")


class TestFleetPlane:
    """Crash/resume bit-identity and the fleet plane's side artifacts."""

    def make_service(self, root, slos=(BOB_SLO,)):
        svc = CampaignService(
            make_spec(*THREE_TENANTS),
            journal_root=str(root),
            run_cell=failing_for_alice,
            observability=ObservabilitySpec(slos=slos, fleet=FleetSpec()),
        )
        for i in range(2):
            svc.submit(TenantCell("alice", wf_factory, params={"i": i}))
            svc.submit(TenantCell("bob", wf_factory, params={"i": i}))
            svc.submit(TenantCell("carol", wf_factory, params={"i": i}))
        return svc

    def campaign(self, root, crash=False, slos=(BOB_SLO,)):
        svc = self.make_service(root, slos)
        if crash:
            svc.run_pending(stop_after=2)
            # Supervisor "crash": a fresh service over the same WAL root
            # restores the fleet plane from the last barrier and replays
            # completed cells from the per-tenant ledgers.
            svc = self.make_service(root, slos)
        svc.run_pending()
        return svc

    def test_watch_stream_is_typed_and_seekable(self, tmp_path):
        svc = self.campaign(tmp_path)
        events = svc.watch()
        assert events[0]["kind"] == "campaign-open"
        kinds = {e["kind"] for e in events}
        assert kinds <= set(EVENT_KINDS)
        assert {"admit", "lease-grant", "cell-start", "cell-complete",
                "cell-retry", "cell-poison", "alert", "slo-transition"} <= kinds
        assert [e["seq"] for e in events] == list(range(len(events)))
        # Seekable: a cursor resumes exactly where it left off.
        cursor = len(events) // 2
        assert svc.watch(since=cursor) == events[cursor:]

    def test_crash_resume_watch_stream_is_byte_identical(self, tmp_path):
        """Acceptance: rollups and watch streams bit-identical across
        crash/resume, via state_dict round-trips through WAL barriers."""
        control = self.campaign(tmp_path / "control")
        crashed = self.campaign(tmp_path / "crashed", crash=True)

        control_bytes = (
            tmp_path / "control" / "__fleet__" / "watch.jsonl").read_bytes()
        crashed_bytes = (
            tmp_path / "crashed" / "__fleet__" / "watch.jsonl").read_bytes()
        assert control_bytes, "control campaign must emit watch events"
        assert crashed_bytes == control_bytes
        assert crashed.watch() == control.watch()
        # The durable stream reads back equal to the live one.
        assert (read_watch_stream(crashed.watch_path)
                == read_watch_stream(control.watch_path) == control.watch())

    def test_crash_after_breaker_trip_resumes_byte_identical(self, tmp_path):
        """Resume re-submissions must bypass a breaker restored tripped.

        Regression: re-submitting a cell the pre-crash service had
        already admitted used to go back through the admission gate, and
        a quarantining breaker restored from the fleet barrier rejected
        it — forking the watch stream with spurious reject events and
        dropping the tenant's parked cells and ledger replays.
        """
        control = self.campaign(tmp_path / "control")
        crashed_root = tmp_path / "crashed"
        svc = self.make_service(crashed_root)
        # Four executed cells include both of alice's crash-looping
        # cells (2 failures each vs a trip threshold of 3), so the
        # supervisor dies *after* her breaker tripped.
        svc.run_pending(stop_after=4)
        assert svc.breaker.is_quarantined("alice", svc.now)
        resumed = self.make_service(crashed_root)
        resumed.run_pending()
        control_bytes = (
            tmp_path / "control" / "__fleet__" / "watch.jsonl").read_bytes()
        crashed_bytes = (crashed_root / "__fleet__" / "watch.jsonl").read_bytes()
        assert crashed_bytes == control_bytes
        assert resumed.fleet.rollup() == control.fleet.rollup()
        assert not any(e["kind"] == "reject" for e in resumed.watch())

    def test_crash_after_every_cell_resumes_identical(self, tmp_path):
        """The supervisor dies after each executed cell in turn (and twice
        in a row, the second life ending before or after its first barrier):
        the fleet barrier chain — one full record per writer epoch, deltas
        after it — restores the same plane every time."""
        control = self.campaign(tmp_path / "control")
        control_bytes = (
            tmp_path / "control" / "__fleet__" / "watch.jsonl").read_bytes()
        executed = sum(not r["replayed"] for r in control.results)
        assert executed == 6
        crashes = [(k,) for k in range(1, executed)] + [(2, 1), (3, 0), (1, 0, 2)]
        for lives in crashes:
            root = tmp_path / "crash-after-{}".format("-".join(map(str, lives)))
            for stop_after in lives:
                self.make_service(root).run_pending(stop_after=stop_after)
            resumed = self.make_service(root)
            resumed.run_pending()
            assert (root / "__fleet__" / "watch.jsonl").read_bytes() == control_bytes, lives
            assert resumed.fleet.rollup() == control.fleet.rollup(), lives
            assert resumed.breaker.state_dict() == control.breaker.state_dict(), lives
            assert resumed.now == control.now, lives
            barriers = [r for r in read_journal(str(root / "__fleet__" / "wal")).records
                        if r["kind"] == "barrier"]
            assert len(barriers) == executed, lives
            # Full where a writer epoch starts, a delta everywhere else.
            full_at = {sum(lives[:i]) for i in range(len(lives) + 1)} - {executed}
            assert [i for i, r in enumerate(barriers) if "state" in r] == sorted(full_at), lives

    def test_pre_change_fleet_wal_is_refused(self, tmp_path):
        """A fleet WAL written before the fleet plane moved onto the one
        barrier protocol holds ``fleet-barrier`` records.  Resuming around
        them would silently reset the breaker and the rollups: refuse."""
        self.make_service(tmp_path).run_pending(stop_after=2)
        segment = segment_path(str(tmp_path / "__fleet__" / "wal"), 0)
        state, lines = None, []
        for rec in read_segment(segment):
            if rec["kind"] == "barrier":  # rewrite it the way it used to be written
                state = apply_delta(state, rec.pop("delta")) if "delta" in rec else rec["state"]
                rec.update(kind="fleet-barrier", state=state)
            lines.append(encode_record(rec))
        assert sum('"kind":"fleet-barrier"' in line for line in lines) == 2
        with open(segment, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(JournalError, match="fleet-barrier"):
            self.make_service(tmp_path)

    def test_an_older_fleet_wal_is_refused(self, tmp_path):
        """A fleet WAL whose barriers journal the rollup and the alert
        lists beside the stream (and whose ``cell-complete`` events carry
        no makespan) predates the rollup's fold: resuming it would count
        its history twice or not at all.  Refuse, naming the key."""
        svc = self.make_service(tmp_path)
        svc.run_pending(stop_after=2)
        segment = segment_path(str(tmp_path / "__fleet__" / "wal"), 0)
        state, lines = None, []
        for rec in read_segment(segment):
            if rec["kind"] == "barrier":  # rewrite it the way it used to be written
                state = apply_delta(state, rec.pop("delta")) if "delta" in rec else rec["state"]
                rec["state"] = {
                    **state, "fleet": svc.fleet.state_dict(),
                    "alerts": {t: [a.to_dict() for a in al] for t, al in svc.alerts.items()},
                }
            lines.append(encode_record(rec))
        with open(segment, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        watch = tmp_path / "__fleet__" / "watch.jsonl"
        events = [json.loads(line) for line in watch.read_text().splitlines()]
        for event in events:
            event.pop("makespan", None)
        watch.write_text("".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events))
        with pytest.raises(JournalError, match="'fleet'"):
            self.make_service(tmp_path)

    @pytest.mark.parametrize("crash", [False, True], ids=["control", "crashed"])
    def test_the_stream_folds_to_the_live_engine(self, tmp_path, crash):
        """A fresh engine fed the committed stream is the live engine: the
        poisoned tenant's failures and trips, the tenant SLO's alerts."""
        svc = self.campaign(tmp_path, crash=crash)
        folded = FleetHealthEngine(svc.fleet.spec)
        for event in read_watch_stream(svc.watch_path):
            folded.ingest(event)
        assert folded.state_dict() == svc.fleet.state_dict()
        assert folded.rollup() == svc.fleet.rollup()
        assert folded.render_openmetrics() == svc.fleet.render_openmetrics()
        roll = folded.rollup()["tenants"]
        assert roll["alice"]["poisoned"] and roll["alice"]["trips"]
        assert roll["bob"]["alerts_firing"]

    def test_a_fleet_barrier_holds_only_controller_state(self, tmp_path):
        """The barrier's keys do not depend on the configuration: a
        campaign with no tenant SLO still journals an (empty) SLO map."""
        for name, slos in (("tenant-slo", (BOB_SLO,)), ("no-slo", ())):
            root = tmp_path / name
            svc = self.campaign(root, crash=True, slos=slos)
            state, folded = None, 0
            for rec in read_journal(str(root / "__fleet__" / "wal")).records:
                if rec["kind"] == "barrier":
                    state = apply_delta(state, rec["delta"]) if "delta" in rec else rec["state"]
                    assert set(state) == {"now", "breaker", "slo", "fleet_slo"}
                    folded += 1
            assert folded == 6  # one per executed cell, over both lives
            assert state["now"] == svc.now

    def test_live_resubmit_after_cooldown_still_admitted(self, tmp_path):
        """The resume bypass must not leak into live operation: a cell
        rejected while its tenant was quarantined is admitted on a real
        retry once the cooldown elapses."""
        svc = self.make_service(tmp_path)
        svc.run_pending()  # alice trips the breaker and stays quarantined
        assert svc.breaker.is_quarantined("alice", svc.now)
        late = TenantCell("alice", wf_factory, params={"i": 99})
        denied = svc.submit(late)
        assert not denied.accepted and denied.reason == "quarantined"
        svc.advance_time(denied.retry_after + 1.0)
        retried = svc.submit(late)
        assert retried.accepted

    def test_crash_resume_fleet_rollup_is_bit_identical(self, tmp_path):
        control = self.campaign(tmp_path / "control")
        crashed = self.campaign(tmp_path / "crashed", crash=True)
        assert crashed.fleet.rollup() == control.fleet.rollup()
        assert (crashed.fleet.render_openmetrics()
                == control.fleet.render_openmetrics())
        assert crashed.now == control.now

    def test_rollup_reflects_the_campaign(self, tmp_path):
        svc = self.campaign(tmp_path)
        roll = svc.fleet.rollup()
        assert list(roll["tenants"]) == ["alice", "bob", "carol"]
        assert roll["tenants"]["alice"]["poisoned"] >= 1.0
        assert roll["tenants"]["bob"]["completed"] == 2.0
        assert roll["tenants"]["carol"]["completed"] == 2.0
        # Alice crash-loops, so she tops the noisy ranking.
        assert roll["noisy"][0]["tenant"] == "alice"
        # The tenant-scoped SLO fired for bob.
        assert roll["tenants"]["bob"]["alerts_firing"] >= 1.0

    def test_flight_recorder_dumped_on_poison(self, tmp_path):
        svc = self.campaign(tmp_path)
        poisoned = [r for r in svc.results if r["status"] == "poisoned"]
        assert poisoned
        path = tmp_path / "__fleet__" / f"flight-{poisoned[0]['cell_id']}.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == "dyflow-flight-recorder/1"
        assert doc["reason"] == f"poison:{poisoned[0]['cell_id']}"
        assert doc["events"] and doc["rollup"]["tenants"]

    def test_openmetrics_export_written_at_campaign_end(self, tmp_path):
        om_path = tmp_path / "fleet.om"
        svc = CampaignService(
            make_spec(*THREE_TENANTS),
            journal_root=str(tmp_path / "wal"),
            run_cell=fake_run,
            observability=ObservabilitySpec(
                fleet=FleetSpec(openmetrics_path=str(om_path))
            ),
        )
        svc.submit(TenantCell("bob", wf_factory))
        svc.run_pending()
        families = parse_openmetrics(om_path.read_text())
        [sample] = families["dyflow_fleet_cell_completed"]["samples"]
        assert sample["labels"] == {"tenant": "bob"} and sample["value"] == 1.0


class TestFleetPlaneGates:
    def test_watch_requires_the_fleet_plane(self):
        svc = CampaignService(make_spec(), run_cell=fake_run)
        with pytest.raises(ReproError, match="fleet observability plane"):
            svc.watch()
        assert svc.fleet is None and svc.watch_path is None

    def test_disabled_observability_disables_the_plane(self):
        svc = CampaignService(
            make_spec(), run_cell=fake_run,
            observability=ObservabilitySpec(),  # no <fleet> section
        )
        assert svc.fleet is None and svc.watch_path is None

    def test_unknown_tenant_slo_is_a_hard_error(self):
        bad = SloSpec(metric="fleet.cell.latency", stat="p95", op="LT",
                      threshold=10.0, tenant="mallory")
        with pytest.raises(ReproError, match="unknown tenant 'mallory'"):
            CampaignService(
                make_spec(), run_cell=fake_run,
                observability=ObservabilitySpec(slos=(bad,), fleet=FleetSpec()),
            )

    def test_value_stat_of_a_histogram_is_unobservable_not_a_crash(self):
        """Regression: ``stat="value"`` on a tenant-scoped histogram metric
        passes spec validation; the service used to read ``inst.value`` off
        the LatencyHistogram and die with AttributeError mid-campaign.
        HealthEngine answers the same question with None; both now share
        ``repro.telemetry.metrics.instrument_stat``."""
        slo = SloSpec(metric="fleet.cell.latency", stat="value", op="LT",
                      threshold=10.0, tenant="bob")
        svc = CampaignService(
            make_spec(), run_cell=fake_run,
            observability=ObservabilitySpec(slos=(slo,), fleet=FleetSpec()),
        )
        svc.submit(TenantCell("bob", wf_factory))
        records = svc.run_pending()
        assert [r["status"] for r in records] == ["completed"]
        # Unobservable input: the objective never transitions.
        assert not any(e["kind"] == "slo-transition" for e in svc.watch())

    def test_in_memory_watch_without_journal_root(self):
        svc = CampaignService(
            make_spec(), run_cell=fake_run,
            observability=ObservabilitySpec(fleet=FleetSpec()),
        )
        svc.submit(TenantCell("bob", wf_factory))
        svc.run_pending()
        assert svc.watch_path is None
        assert any(e["kind"] == "cell-complete" for e in svc.watch())


def burn_cell(cell, lease):
    """A cheap deterministic cell: a fake makespan and the lease it got."""
    i = cell.params["i"]
    return {"makespan": 10.0 + (i % 7), "cores": lease.cores}


def outcomes(mode, tmp_path):
    """The admission verdicts and cell records of a 3-tenant x 15-cell
    campaign run in *mode*."""
    observability = journal_root = None
    if mode == "fleet":
        observability = ObservabilitySpec(fleet=FleetSpec())
    elif mode == "durable":
        journal_root = str(tmp_path / "wal")
        observability = ObservabilitySpec(
            fleet=FleetSpec(openmetrics_path=str(tmp_path / "fleet.om")))
    tenants = ("alice", "bob", "carol")
    svc = CampaignService(
        TenantsSpec(nodes=8, cores_per_node=4, tenants=tuple(TenantSpec(t) for t in tenants)),
        journal_root=journal_root, run_cell=burn_cell, observability=observability,
    )
    verdicts = [
        svc.submit(TenantCell(tenant, dict, params={"i": i})).reason
        for i in range(15) for tenant in tenants
    ]
    records = [(r["tenant"], r["cell_id"], r["status"], r["result"]) for r in svc.run_pending()]
    return verdicts, records


@pytest.mark.parametrize("mode", ["off", "fleet", "durable"])
def test_the_fleet_plane_leaves_cell_outcomes_unchanged(mode, tmp_path):
    plain = outcomes("off", tmp_path / "plain")
    verdicts, records = plain
    assert len(records) == verdicts.count("") > 0
    assert {r[2] for r in records} == {"completed"}
    assert outcomes(mode, tmp_path / mode) == plain


class TestTenantSummaryOrdering:
    """tenant_summary() is deterministically ordered regardless of the
    declaration order in the spec — equal campaigns dump equal JSON."""

    def run_one(self, *tenants):
        svc = CampaignService(
            TenantsSpec(nodes=4, cores_per_node=4, tenants=tenants),
            run_cell=fake_run,
        )
        for t in tenants:
            svc.submit(TenantCell(t.tenant_id, wf_factory))
        svc.run_pending()
        return svc.tenant_summary()

    def test_sorted_ids_and_stable_json(self):
        shuffled = self.run_one(TenantSpec("carol"), TenantSpec("alice"),
                                TenantSpec("bob"))
        declared = self.run_one(TenantSpec("alice"), TenantSpec("bob"),
                                TenantSpec("carol"))
        assert list(shuffled) == ["alice", "bob", "carol"]
        assert json.dumps(shuffled) == json.dumps(declared)
