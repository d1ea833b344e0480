"""Fleet-wide observability: cross-tenant rollups over a campaign.

The :class:`FleetHealthEngine` is the campaign-scale sibling of the
per-run :class:`~repro.observability.health.HealthEngine`.  Where the
health engine watches one orchestrator's registry, the fleet engine
merges *per-tenant* metric streams and :class:`HealthAlert` records into
one deterministic rollup: per-tenant p50/p95 cell latency, completion /
failure / poison counts, breaker trips, and a top-:data:`NOISY_TOP_K`
"noisy tenant" ranking.  The rollup exports as tenant-labeled
OpenMetrics families via
:func:`~repro.observability.openmetrics.render_labeled_openmetrics`.

All state is a fold of the campaign's watch stream: :meth:`ingest` takes
one event, so a resumed service rebuilds the rollup by folding the
committed stream (:func:`~repro.observability.watch.read_watch_stream`)
and nothing journals it a second time.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ObservabilityError
from repro.observability.openmetrics import render_labeled_openmetrics
from repro.observability.slo import HealthAlert
from repro.observability.spec import FleetSpec
from repro.telemetry.metrics import MetricsRegistry

#: How many tenants :meth:`FleetHealthEngine.noisy_tenants` ranks.
NOISY_TOP_K = 3

# Cell latencies are simulated makespans (seconds to thousands of
# seconds); the default 1ms..2000s buckets cover them.


class FleetHealthEngine:
    """Deterministic cross-tenant aggregation of campaign telemetry."""

    def __init__(self, spec: FleetSpec | None = None) -> None:
        self.spec = spec or FleetSpec()
        self.spec.validate()
        self._registries: dict[str, MetricsRegistry] = {}
        self._alerts: dict[str, list[HealthAlert]] = {}

    # -- ingestion -----------------------------------------------------

    def ingest(self, event: dict[str, Any]) -> None:
        """Fold one watch-stream event into its tenant's rollup; the
        kinds the rollup does not count (admissions, leases, starts) pass."""
        kind = event["kind"]
        if kind in ("reject", "lease-deny"):
            self.record_rejection(event["tenant"])
        elif kind == "breaker-trip":
            self.record_trip(event["tenant"])
        elif kind == "cell-retry":
            self.record_failure(event["tenant"])
        elif kind == "cell-complete":
            self.record_cell(event["tenant"], event["makespan"])
        elif kind == "cell-poison":
            self.record_cell(event["tenant"], None, status="poisoned")
        elif kind in ("alert", "slo-transition"):
            self.ingest_alert(event["tenant"], HealthAlert.from_dict(event["alert"]))

    def registry(self, tenant_id: str) -> MetricsRegistry:
        """The tenant's rollup registry, created on first use."""
        reg = self._registries.get(tenant_id)
        if reg is None:
            reg = self._registries[tenant_id] = MetricsRegistry()
            self._alerts.setdefault(tenant_id, [])
        return reg

    def record_cell(
        self, tenant_id: str, latency: float | None, *, status: str = "completed"
    ) -> None:
        """Fold one finished cell into the tenant's rollup.

        *latency* is the cell's simulated makespan, ``None`` for a cell
        that never finished (a poisoned cell leaves no latency sample);
        *status* is the executor outcome (``completed`` / ``poisoned``).
        """
        if status not in ("completed", "poisoned"):
            raise ObservabilityError(f"unknown cell status {status!r}")
        reg = self.registry(tenant_id)
        if latency is not None:
            reg.histogram("fleet.cell.latency").observe(latency)
        reg.counter(f"fleet.cell.{status}").inc()

    def record_failure(self, tenant_id: str) -> None:
        """One failed attempt the supervisor absorbed for the tenant."""
        self.registry(tenant_id).counter("fleet.cell.failures").inc()

    def record_rejection(self, tenant_id: str) -> None:
        """One admission/lease rejection for the tenant."""
        self.registry(tenant_id).counter("fleet.cell.rejected").inc()

    def record_trip(self, tenant_id: str) -> None:
        """One breaker/quarantine trip for the tenant."""
        self.registry(tenant_id).counter("fleet.breaker.trips").inc()

    def ingest_alert(self, tenant_id: str, alert: HealthAlert) -> None:
        """Append one per-tenant SLO/anomaly transition to the stream."""
        self.registry(tenant_id)
        self._alerts[tenant_id].append(alert)
        self._registries[tenant_id].counter(f"fleet.alerts.{alert.kind}").inc()

    # -- queries -------------------------------------------------------

    def tenants(self) -> list[str]:
        return sorted(self._registries)

    def alerts(self, tenant_id: str) -> list[HealthAlert]:
        return list(self._alerts.get(tenant_id, []))

    def _noise_score(self, tenant_id: str) -> float:
        """How noisy a tenant is: failures weigh most, then trips/alerts.

        The weights are deliberately coarse — the ranking exists to point
        an operator at the right tenant, not to be a calibrated metric.
        """
        reg = self._registries[tenant_id]

        def val(name: str) -> float:
            inst = reg.lookup(name)
            return inst.value if inst is not None else 0.0

        return (
            3.0 * val("fleet.cell.poisoned")
            + 2.0 * val("fleet.breaker.trips")
            + 1.0 * val("fleet.cell.failures")
            + 1.0 * val("fleet.alerts.firing")
            + 0.5 * val("fleet.cell.rejected")
        )

    def noisy_tenants(self) -> list[tuple[str, float]]:
        """The :data:`NOISY_TOP_K` noisiest tenants (score desc, id asc tiebreak)."""
        scored = [(tid, self._noise_score(tid)) for tid in self.tenants()]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:NOISY_TOP_K]

    def rollup(self) -> dict[str, Any]:
        """The fleet state as one deterministic JSON-friendly dict."""
        tenants: dict[str, Any] = {}
        for tid in self.tenants():
            reg = self._registries[tid]
            hist = reg.lookup("fleet.cell.latency")
            entry: dict[str, Any] = {}
            for key, name in (
                ("completed", "fleet.cell.completed"),
                ("poisoned", "fleet.cell.poisoned"),
                ("failures", "fleet.cell.failures"),
                ("rejected", "fleet.cell.rejected"),
                ("trips", "fleet.breaker.trips"),
                ("alerts_firing", "fleet.alerts.firing"),
                ("alerts_clearing", "fleet.alerts.clearing"),
            ):
                inst = reg.lookup(name)
                entry[key] = inst.value if inst is not None else 0.0
            if hist is not None and hist.count:
                entry["latency"] = {
                    "count": hist.count,
                    "p50": hist.p50,
                    "p95": hist.p95,
                    "mean": hist.mean,
                }
            entry["alerts"] = [a.to_dict() for a in self._alerts.get(tid, [])]
            tenants[tid] = entry
        return {
            "tenants": tenants,
            "noisy": [{"tenant": t, "score": s} for t, s in self.noisy_tenants()],
        }

    def render_openmetrics(self, prefix: str = "dyflow_") -> str:
        """Tenant-labeled OpenMetrics text for the whole fleet."""
        return render_labeled_openmetrics(self._registries, label="tenant", prefix=prefix)

    # -- comparison ----------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        """Every registry and alert list as plain data: what a fold of the
        same stream must reproduce."""
        return {
            "registries": {
                tid: self._registries[tid].state_dict() for tid in self.tenants()
            },
            "alerts": {
                tid: [a.to_dict() for a in self._alerts.get(tid, [])]
                for tid in self.tenants()
            },
        }
