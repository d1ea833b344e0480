"""FleetHealthEngine: deterministic cross-tenant rollups and export."""

import json

import pytest

from repro.campaign import CampaignService, ExecutorSpec, TenantCell, TenantSpec, TenantsSpec
from repro.errors import ObservabilityError
from repro.observability import ObservabilitySpec, parse_openmetrics
from repro.observability.fleet import NOISY_TOP_K, FleetHealthEngine
from repro.observability.slo import HealthAlert
from repro.observability.spec import FleetSpec


ALERT = HealthAlert(
    time=3.0, source="slo:x", kind="firing", severity="warning",
    value=9.0, threshold=5.0, message="x too high",
)

#: The watch events of a small campaign, as ``CampaignService`` emits them.
BUSY_EVENTS = [
    *({"kind": "cell-complete", "tenant": "alice", "makespan": m} for m in (1.0, 2.0, 4.0)),
    {"kind": "admit", "tenant": "bob"},  # counted nowhere in the rollup
    {"kind": "cell-retry", "tenant": "bob"},
    {"kind": "cell-retry", "tenant": "bob"},
    {"kind": "cell-complete", "tenant": "bob", "makespan": 10.0},
    {"kind": "cell-poison", "tenant": "bob"},
    {"kind": "reject", "tenant": "bob"},
    {"kind": "breaker-trip", "tenant": "bob"},
    {"kind": "alert", "tenant": "bob", "alert": ALERT.to_dict()},
    {"kind": "cell-complete", "tenant": "carol", "makespan": 1.5},
]


def fold(events) -> FleetHealthEngine:
    eng = FleetHealthEngine()
    for event in events:
        eng.ingest(event)
    return eng


def busy_fleet() -> FleetHealthEngine:
    return fold(BUSY_EVENTS)


def test_the_fold_calls_the_per_kind_handlers():
    by_hand = FleetHealthEngine()
    for latency in (1.0, 2.0, 4.0):
        by_hand.record_cell("alice", latency)
    by_hand.record_failure("bob")
    by_hand.record_failure("bob")
    by_hand.record_cell("bob", 10.0)
    by_hand.record_cell("bob", None, status="poisoned")
    by_hand.record_rejection("bob")
    by_hand.record_trip("bob")
    by_hand.ingest_alert("bob", ALERT)
    by_hand.record_cell("carol", 1.5)
    assert busy_fleet().state_dict() == by_hand.state_dict()


class TestRollup:
    def test_rollup_orders_tenants_and_counts(self):
        roll = busy_fleet().rollup()
        assert list(roll["tenants"]) == ["alice", "bob", "carol"]
        bob = roll["tenants"]["bob"]
        assert bob["completed"] == 1.0
        assert bob["poisoned"] == 1.0
        assert bob["failures"] == 2.0
        assert bob["rejected"] == 1.0
        assert bob["trips"] == 1.0
        assert bob["alerts_firing"] == 1.0
        assert len(bob["alerts"]) == 1

    def test_latency_percentiles_per_tenant(self):
        roll = busy_fleet().rollup()
        lat = roll["tenants"]["alice"]["latency"]
        assert lat["count"] == 3
        assert 0.0 < lat["p50"] <= lat["p95"]

    def test_noisy_ranking_is_topk_and_deterministic(self):
        # bob: poisoned+trip+failures+alert+reject.  Quiet tenants tie
        # at zero; id order breaks the tie, and dave falls past the top k.
        eng = fold([*BUSY_EVENTS, {"kind": "cell-complete", "tenant": "dave", "makespan": 1.0}])
        noisy = eng.noisy_tenants()
        assert len(noisy) == NOISY_TOP_K == 3
        assert [t for t, _ in noisy] == ["bob", "alice", "carol"]

    def test_unknown_cell_status_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown cell status"):
            FleetHealthEngine().record_cell("a", 1.0, status="vanished")


class TestExport:
    def test_openmetrics_is_tenant_labeled_and_parseable(self):
        text = busy_fleet().render_openmetrics()
        families = parse_openmetrics(text)
        assert 'tenant="alice"' in text and 'tenant="bob"' in text
        counts = {
            s["labels"]["tenant"]: s["value"]
            for s in families["dyflow_fleet_cell_completed"]["samples"]
        }
        assert counts == {"alice": 3.0, "bob": 1.0, "carol": 1.0}

    def test_render_is_deterministic(self):
        assert busy_fleet().render_openmetrics() == busy_fleet().render_openmetrics()


class TestPersistence:
    """The engine persists as the stream it folds: an engine folded from
    the events as a reader meets them (JSON text) is the live one."""

    def test_state_roundtrip_is_lossless(self):
        eng = busy_fleet()
        restored = fold(json.loads(json.dumps(BUSY_EVENTS)))
        assert restored.rollup() == eng.rollup()
        assert restored.render_openmetrics() == eng.render_openmetrics()
        assert restored.state_dict() == eng.state_dict()

    def test_restored_engine_keeps_accumulating(self):
        eng = busy_fleet()
        restored = fold(json.loads(json.dumps(BUSY_EVENTS)))
        more = {"kind": "cell-complete", "tenant": "alice", "makespan": 8.0}
        restored.ingest(more)
        eng.ingest(more)
        assert restored.rollup() == eng.rollup()


class TestPoisonedCellsLeaveNoLatencySample:
    """Regression: the service recorded a poisoned cell as a 0.0 s latency
    sample, so a tenant's ``fleet.cell.latency`` got *healthier* the more
    cells it poisoned and the rollup counted cells that never ran."""

    def test_engine_counts_the_poison_but_not_a_latency(self):
        eng = FleetHealthEngine()
        for _ in range(3):
            eng.record_cell("alice", 100.0)
        before = eng.rollup()["tenants"]["alice"]["latency"]
        for _ in range(3):
            eng.record_cell("alice", None, status="poisoned")
            eng.record_failure("alice")
            eng.record_failure("alice")
        alice = eng.rollup()["tenants"]["alice"]
        assert alice["latency"] == before and before["count"] == 3
        assert alice["poisoned"] == 3.0 and alice["failures"] == 6.0

    def test_service_poisons_do_not_drag_the_tenant_latency_down(self):
        def run_cell(cell, lease):
            if cell.params["poison"]:
                raise RuntimeError("never finishes")
            return {"makespan": 100.0}

        svc = CampaignService(
            TenantsSpec(
                nodes=4, cores_per_node=4, tenants=(TenantSpec("alice"),),
                executor=ExecutorSpec(max_attempts=1, backoff_base=0.0, jitter=0.0),
            ),
            run_cell=run_cell,
            observability=ObservabilitySpec(fleet=FleetSpec()),
        )
        for i in range(6):
            svc.submit(TenantCell(
                "alice", lambda **_: None, params={"i": i, "poison": i >= 3}
            ))
        records = svc.run_pending()
        assert [r["status"] for r in records] == ["completed"] * 3 + ["poisoned"] * 3
        alice = svc.fleet.rollup()["tenants"]["alice"]
        assert alice["completed"] == 3.0 and alice["poisoned"] == 3.0
        assert alice["latency"]["count"] == 3
        assert alice["latency"]["mean"] == 100.0
        assert alice["latency"]["p50"] > 50.0
