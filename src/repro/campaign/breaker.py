"""Per-tenant circuit breaker: crash-looping tenants get quarantined.

Bulkhead isolation's second line of defense: admission quotas bound how
much a tenant can *hold*, the breaker bounds how much it can *break*.
Every failed cell is blamed on its tenant; a tenant collecting enough
blame within a sliding window is quarantined for a cooldown — its
queued cells stay parked and its leases are refused — instead of
burning shared capacity on a crash loop while its neighbors starve.

The mechanism is exactly the node-quarantine pattern from
``repro.resilience`` (sliding window, cooldown, lazy release), applied
to tenant ids instead of node ids, so the two breakers stay
behaviorally identical by construction.
"""

from __future__ import annotations

from typing import Callable

from repro.resilience.quarantine import NodeQuarantine, QuarantineEvent
from repro.resilience.spec import QuarantineSpec


class TenantBreaker:
    """Sliding-window failure counter per tenant, with cooldown exclusion."""

    def __init__(self, spec: QuarantineSpec, clock: Callable[[], float]) -> None:
        # Delegate to the node quarantine: same window/threshold/cooldown
        # semantics, tenant ids in place of node ids.
        self._q = NodeQuarantine(spec, clock)
        self.spec = spec

    def record_failure(self, tenant_id: str, now: float | None = None) -> bool:
        """Blame one failed cell on *tenant_id*; True if it newly trips."""
        return self._q.record_failure(tenant_id, now)

    def is_quarantined(self, tenant_id: str, now: float | None = None) -> bool:
        return self._q.is_quarantined(tenant_id, now)

    def active(self, now: float | None = None) -> set[str]:
        """Tenant ids currently quarantined."""
        return self._q.active(now)

    def blamed(self, tenant_id: str) -> int:
        """Failures currently held against *tenant_id* (within the window)."""
        return self._q.blamed(tenant_id)

    def cooldown_remaining(self, tenant_id: str, now: float | None = None) -> float:
        """Seconds until *tenant_id* is released (0 when not quarantined)."""
        t = self._q.clock() if now is None else now
        if not self._q.is_quarantined(tenant_id, t):
            return 0.0
        return self._q._until[tenant_id] - t

    @property
    def revision(self) -> int:
        """Moves whenever :meth:`state_dict` may have."""
        return self._q.revision

    @property
    def history(self) -> list[QuarantineEvent]:
        return self._q.history

    def trips(self, tenant_id: str | None = None) -> int:
        """Quarantine events recorded (optionally for one tenant)."""
        return sum(
            1
            for e in self._q.history
            if e.kind == "quarantined"
            and (tenant_id is None or e.node_id == tenant_id)
        )

    # -- crash recovery ------------------------------------------------------------
    def state_dict(self) -> dict:
        return self._q.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self._q.load_state_dict(state)
