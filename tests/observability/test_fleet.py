"""FleetHealthEngine: deterministic cross-tenant rollups and export."""

import pytest

from repro.campaign import CampaignService, ExecutorSpec, TenantCell, TenantSpec, TenantsSpec
from repro.errors import ObservabilityError
from repro.observability import ObservabilitySpec, parse_openmetrics
from repro.observability.fleet import FleetHealthEngine
from repro.observability.slo import HealthAlert
from repro.observability.spec import FleetSpec


def busy_fleet() -> FleetHealthEngine:
    eng = FleetHealthEngine(FleetSpec(top_k=2))
    for latency in (1.0, 2.0, 4.0):
        eng.record_cell("alice", latency)
    eng.record_cell("bob", 10.0, failures=2)
    eng.record_cell("bob", 0.0, status="poisoned")
    eng.record_rejection("bob")
    eng.record_trip("bob")
    eng.ingest_alert("bob", HealthAlert(
        time=3.0, source="slo:x", kind="firing", severity="warning",
        value=9.0, threshold=5.0, message="x too high",
    ))
    eng.record_cell("carol", 1.5)
    return eng


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
        eng = busy_fleet()
        noisy = eng.noisy_tenants()
        assert len(noisy) == 2  # spec.top_k
        assert noisy[0][0] == "bob"  # poisoned+trip+failures+alert+reject
        # Quiet tenants tie at zero; id order breaks the tie.
        assert [t for t, _ in eng.noisy_tenants(k=3)] == ["bob", "alice", "carol"]

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
    def test_state_roundtrip_is_lossless(self):
        eng = busy_fleet()
        restored = FleetHealthEngine(FleetSpec(top_k=2))
        restored.load_state_dict(eng.state_dict())
        assert restored.rollup() == eng.rollup()
        assert restored.render_openmetrics() == eng.render_openmetrics()
        assert restored.state_dict() == eng.state_dict()

    def test_restored_engine_keeps_accumulating(self):
        eng = busy_fleet()
        restored = FleetHealthEngine(FleetSpec(top_k=2))
        restored.load_state_dict(eng.state_dict())
        restored.record_cell("alice", 8.0)
        eng.record_cell("alice", 8.0)
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
            eng.record_cell("alice", None, status="poisoned", failures=2)
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
