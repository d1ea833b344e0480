"""Campaign-service configuration: tenants, quotas, and the executor.

The ``<tenants>`` XML section (see ``docs/xml-reference.md``) parses
into :class:`TenantsSpec`; programmatic users build the dataclasses
directly.  The section is deliberately self-contained: it carries the
shared machine's shape (``nodes`` × ``cores-per-node``) alongside the
per-tenant quotas, so a spec document can be statically verified
(DY410/DY411) without a live machine object.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.resilience.spec import QuarantineSpec
from repro.util.xmlfield import attr, check_fields, child, children


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's admission contract on the shared machine.

    Args:
        tenant_id: unique tenant name.
        quota_cores: cap on cores the tenant may hold concurrently
            (0 = no per-tenant cap; the machine still bounds everyone).
        weight: fair-share weight — a tenant with weight 2 is served
            twice as often as one with weight 1 when both have work.
        max_queue: bound on the tenant's submit queue; submissions past
            it are rejected with a retry-after hint (backpressure),
            never buffered without limit.
    """

    tenant_id: str = attr(name="id", nonempty=True)
    quota_cores: int = attr(0, ge=0)
    weight: float = attr(1.0, gt=0)
    max_queue: int = attr(8, gt=0)

    def validate(self) -> None:
        check_fields(self, ReproError, f"tenant {self.tenant_id!r}")


@dataclass(frozen=True)
class ExecutorSpec:
    """Crash-supervised parallel executor knobs (PaPaS-style).

    Args:
        workers: worker-process slots; 0 runs cells serially in-process
            (fully deterministic, no wall clock involved).
        cell_timeout: wall-clock seconds one attempt may run before the
            supervisor kills the worker (0 = no timeout).
        max_attempts: attempts before a cell is declared *poisoned* and
            quarantined; 1 means no retry budget.
        backoff_base / backoff_factor / backoff_max: exponential retry
            delay schedule, in seconds.
        jitter: +/- fraction of the delay drawn from the cell's named
            RNG stream (``campaign:retry:<cell>``) — deterministic.
        kill_prob: worker-kill fault injection — probability per attempt
            (drawn from ``campaign:chaos:<cell>``) that the worker is
            SIGKILLed mid-cell.  Test/bench chaos only.
    """

    workers: int = attr(0, ge=0)
    cell_timeout: float = attr(0.0, ge=0)
    max_attempts: int = attr(3, ge=1)
    backoff_base: float = attr(0.5, ge=0)
    backoff_factor: float = attr(2.0, ge=1)
    backoff_max: float = attr(30.0, ge=0)
    jitter: float = attr(0.25, ge=0, le=1)
    kill_prob: float = attr(0.0, ge=0, lt=1)

    def validate(self) -> None:
        check_fields(self, ReproError, "executor")


@dataclass(frozen=True)
class TenantsSpec:
    """The whole ``<tenants>`` section: machine shape + tenant contracts.

    Args:
        nodes / cores_per_node: shape of the shared machine the tenants
            compete for (0 = unspecified; static checks that need the
            capacity are skipped).
        tenants: the tenant contracts, in declaration order.
        executor: optional :class:`ExecutorSpec` for the campaign grid.
        breaker: optional per-tenant circuit breaker (the node-
            quarantine parameters, applied to tenant ids).
    """

    nodes: int = attr(0, ge=0)
    cores_per_node: int = attr(0, ge=0)
    tenants: tuple[TenantSpec, ...] = children(TenantSpec, "tenant")
    executor: ExecutorSpec | None = child(ExecutorSpec)
    breaker: QuarantineSpec | None = child(QuarantineSpec)

    def validate(self) -> None:
        check_fields(self, ReproError, "tenants")
        seen: set[str] = set()
        for t in self.tenants:
            if t.tenant_id in seen:
                raise ReproError(f"duplicate tenant id {t.tenant_id!r}")
            seen.add(t.tenant_id)

    @property
    def capacity_cores(self) -> int:
        """Total cores of the shared machine (0 when unspecified)."""
        return self.nodes * self.cores_per_node
