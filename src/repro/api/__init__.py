"""The stable public API of the DYFLOW reproduction.

``repro.api`` is the single import surface users should program against:

    from repro.api import (
        DyflowOrchestrator, RuntimeOptions, Savanna, SimEngine, summit,
        SensorSpec, PolicySpec, PolicyApplication, ActionType,
    )

Everything re-exported here is covered by the API-surface snapshot test
(``tests/test_api_facade.py``) and keeps working across internal
refactors; importing from the implementation packages (``repro.core``,
``repro.wms``, ...) still works but offers no such guarantee.  The
examples under ``examples/`` import exclusively from this package.

Besides the flat names, the surface is organised into **namespaced
sub-facades** so related pieces can be imported as a group::

    from repro.api import runtime, telemetry, fault, journal, lint, fabric, campaign

    orch = runtime.DyflowOrchestrator(launcher, options=runtime.RuntimeOptions())
    spec = fault.ResilienceSpec(retry=fault.RetryPolicy(max_retries=2))

* ``repro.api.runtime`` — the two drivers, :class:`RuntimeOptions`,
  the engine/rng substrate, and the XML bootstrap.
* ``repro.api.telemetry`` — tracer and metrics.
* ``repro.api.fault`` — resilience specs and the chaos engine.
* ``repro.api.journal`` — crash-recovery journaling and fingerprints.
* ``repro.api.lint`` — static verification, preflight, SARIF.
* ``repro.api.fabric`` — the lossy Monitor-fabric transport model.
* ``repro.api.campaign`` — the multi-tenant campaign service.

Every flat name remains importable directly from ``repro.api`` (the
sub-facades are views, not a migration), and resolution is lazy (PEP
562): importing ``repro.api`` pulls in no implementation module until
the first attribute access, which keeps ``import repro.api`` cheap for
CLI tools that touch one corner of the surface.
"""

from __future__ import annotations

import importlib

#: Namespaced sub-facade modules, loaded on first attribute access.
_SUBFACADES = frozenset(
    {"runtime", "telemetry", "fault", "journal", "lint", "fabric", "campaign"}
)

#: Flat name -> implementation module.  This table *is* the public
#: surface; the snapshot test pins its keys.
_FLAT = {
    # simulation substrate
    "SimEngine": "repro.sim",
    "RngRegistry": "repro.sim",
    # cluster models
    "summit": "repro.cluster",
    "deepthought2": "repro.cluster",
    "Allocation": "repro.cluster",
    "BatchScheduler": "repro.cluster",
    # workflows and the WMS
    "WorkflowSpec": "repro.wms",
    "TaskSpec": "repro.wms",
    "DependencySpec": "repro.wms",
    "CouplingType": "repro.wms",
    "TaskState": "repro.wms",
    "Savanna": "repro.wms",
    "Campaign": "repro.wms",
    "CampaignRunner": "repro.wms",
    "Sweep": "repro.wms",
    # multi-tenant campaign service
    "TenantSpec": "repro.campaign",
    "TenantsSpec": "repro.campaign",
    "ExecutorSpec": "repro.campaign",
    "CampaignService": "repro.campaign",
    "TenantCell": "repro.campaign",
    "SupervisedExecutor": "repro.campaign",
    "statepoint_id": "repro.campaign",
    # applications
    "IterativeApp": "repro.apps",
    "AmdahlModel": "repro.apps",
    "ConstantModel": "repro.apps",
    "PowerLawModel": "repro.apps",
    "RampModel": "repro.apps",
    "GrayScottSolver": "repro.apps.kernels",
    "isosurface_cell_count": "repro.apps.kernels",
    "ANALYSIS_TASKS": "repro.apps.gray_scott",
    # control loop
    "SensorSpec": "repro.core",
    "GroupBySpec": "repro.core",
    "JoinSpec": "repro.core",
    "PolicySpec": "repro.core",
    "PolicyApplication": "repro.core",
    "ActionType": "repro.core",
    "SuggestedAction": "repro.core",
    "reason_counts": "repro.core",
    "MetricUpdate": "repro.core",
    "ActionPlan": "repro.core",
    "DyflowOrchestrator": "repro.runtime",
    "ThreadedDyflow": "repro.runtime",
    "LiveTaskSpec": "repro.runtime",
    "RuntimeOptions": "repro.runtime",
    # XML interface
    "parse_dyflow_xml": "repro.xmlspec",
    "write_dyflow_xml": "repro.xmlspec",
    "configure_orchestrator": "repro.xmlspec",
    "DyflowSpec": "repro.xmlspec",
    # resilience
    "ResilienceSpec": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    "WatchdogSpec": "repro.resilience",
    "QuarantineSpec": "repro.resilience",
    "CheckpointSpec": "repro.resilience",
    "FaultModelSpec": "repro.resilience",
    "ChaosEngine": "repro.resilience",
    # monitor fabric
    "NetworkSpec": "repro.fabric",
    "PartitionWindow": "repro.fabric",
    "LinkOverride": "repro.fabric",
    "FabricLink": "repro.fabric",
    "DegradedModeController": "repro.fabric",
    "BoundedShedQueue": "repro.fabric",
    # crash recovery
    "Journal": "repro.journal",
    "JournalSpec": "repro.journal",
    "JournalState": "repro.journal",
    "AppliedOpsLedger": "repro.journal",
    "read_journal": "repro.journal",
    "scenario_fingerprint": "repro.journal",
    # telemetry
    "TelemetrySpec": "repro.telemetry",
    "Tracer": "repro.telemetry",
    "NullTracer": "repro.telemetry",
    "TraceSpan": "repro.telemetry",
    "MetricsRegistry": "repro.telemetry",
    "build_tracer": "repro.telemetry",
    # observability
    "ObservabilitySpec": "repro.observability",
    "SloSpec": "repro.observability",
    "AnomalySpec": "repro.observability",
    "HealthAlert": "repro.observability",
    "HealthEngine": "repro.observability",
    "HEALTH_TASK": "repro.observability",
    "SpanView": "repro.observability",
    "utilization_from_events": "repro.observability",
    "render_openmetrics": "repro.observability",
    "parse_openmetrics": "repro.observability",
    "write_openmetrics": "repro.observability",
    "report_from_jsonl": "repro.observability",
    "render_markdown": "repro.observability",
    "write_report": "repro.observability",
    # fleet observability plane
    "FleetSpec": "repro.observability",
    "FleetHealthEngine": "repro.observability",
    "WatchStream": "repro.observability",
    "read_watch_stream": "repro.observability",
    "render_labeled_openmetrics": "repro.observability",
    # canned experiments
    "run_xgc_experiment": "repro.experiments",
    "run_gray_scott_experiment": "repro.experiments",
    "run_lammps_experiment": "repro.experiments",
    "render_gantt": "repro.experiments",
    "ScenarioResult": "repro.experiments",
    "XGC_XML": "repro.experiments",
    "GRAY_SCOTT_XML": "repro.experiments",
    "LAMMPS_XML": "repro.experiments",
    "build_report": "repro.experiments.report",
    "format_report": "repro.experiments.report",
    # static analysis
    "Diagnostic": "repro.lint",
    "Severity": "repro.lint",
    "PreflightWarning": "repro.lint",
    "VerificationError": "repro.lint",
    "analyze_dataflow": "repro.lint",
    "verify_spec": "repro.lint",
    "lint_xml_text": "repro.lint",
    "fix_xml_text": "repro.lint",
    "run_selflint": "repro.lint",
    "run_preflight": "repro.lint",
    "render_sarif": "repro.lint",
    # errors
    "ReproError": "repro.errors",
}

__all__ = sorted(_FLAT)


def __getattr__(name: str):
    if name in _SUBFACADES:
        module = importlib.import_module(f"{__name__}.{name}")
        globals()[name] = module  # cache: next access skips __getattr__
        return module
    impl = _FLAT.get(name)
    if impl is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    obj = getattr(importlib.import_module(impl), name)
    globals()[name] = obj
    return obj


def __dir__() -> list[str]:
    return sorted(set(__all__) | _SUBFACADES)
