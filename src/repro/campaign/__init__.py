"""Fault-contained multi-tenant campaign service (Dflow/PaPaS shape).

Many workflows (tenants) share simulated machines with **bulkhead
isolation** as the design invariant: per-tenant quotas and bounded
queues at admission, a campaign-level machine arbiter, per-tenant
circuit breakers and WAL directories, and a PaPaS-style crash-
supervised parallel executor for the campaign grid.  See
``docs/campaign.md`` for the tenancy model and isolation guarantees.

Resolution is lazy (PEP 562): ``repro.wms.campaign`` imports the
statepoint hash from here, and an eager ``__init__`` would close an
import cycle through the service's WMS dependencies.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    # configuration
    "TenantSpec": "repro.campaign.spec",
    "TenantsSpec": "repro.campaign.spec",
    "ExecutorSpec": "repro.campaign.spec",
    # statepoint hashing
    "canonical_json": "repro.campaign.statepoint",
    "statepoint_hash": "repro.campaign.statepoint",
    "statepoint_id": "repro.campaign.statepoint",
    # admission
    "TenantRegistry": "repro.campaign.registry",
    "TenantState": "repro.campaign.registry",
    "AdmissionController": "repro.campaign.registry",
    "AdmissionResult": "repro.campaign.registry",
    # fault containment
    "TenantBreaker": "repro.campaign.breaker",
    # machine-wide arbitration
    "MachineArbiter": "repro.campaign.arbiter",
    "Lease": "repro.campaign.arbiter",
    # crash-supervised execution
    "SupervisedExecutor": "repro.campaign.executor",
    "CellOutcome": "repro.campaign.executor",
    "CellFailure": "repro.campaign.executor",
    # the service
    "CampaignService": "repro.campaign.service",
    "TenantCell": "repro.campaign.service",
    "run_cell_scenario": "repro.campaign.service",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    impl = _EXPORTS.get(name)
    if impl is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    obj = getattr(importlib.import_module(impl), name)
    globals()[name] = obj
    return obj


def __dir__() -> list[str]:
    return sorted(__all__)
