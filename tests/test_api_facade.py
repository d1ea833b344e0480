"""The repro.api facade: one import surface for scripts and examples.

Includes the API-surface snapshot: the flat surface below is a frozen
contract — removing or renaming a name is a breaking change and must be
deliberate (update the snapshot in the commit that documents the
break).  The test fails on *any* drift, in either direction, so the
diff always shows exactly what changed.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import api

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))

#: The committed flat surface of ``repro.api``.
API_SURFACE = [
    "ANALYSIS_TASKS",
    "ActionPlan",
    "ActionType",
    "Allocation",
    "AmdahlModel",
    "AnomalySpec",
    "AppliedOpsLedger",
    "BatchScheduler",
    "BoundedShedQueue",
    "Campaign",
    "CampaignRunner",
    "CampaignService",
    "ChaosEngine",
    "CheckpointSpec",
    "ConstantModel",
    "CouplingType",
    "DegradedModeController",
    "DependencySpec",
    "Diagnostic",
    "DyflowOrchestrator",
    "DyflowSpec",
    "ExecutorSpec",
    "FabricLink",
    "FaultModelSpec",
    "FleetHealthEngine",
    "FleetSpec",
    "GRAY_SCOTT_XML",
    "GrayScottSolver",
    "GroupBySpec",
    "HEALTH_TASK",
    "HealthAlert",
    "HealthEngine",
    "IterativeApp",
    "JoinSpec",
    "Journal",
    "JournalSpec",
    "JournalState",
    "LAMMPS_XML",
    "LinkOverride",
    "LiveTaskSpec",
    "MetricUpdate",
    "MetricsRegistry",
    "NetworkSpec",
    "NullTracer",
    "ObservabilitySpec",
    "PartitionWindow",
    "PolicyApplication",
    "PolicySpec",
    "PowerLawModel",
    "PreflightWarning",
    "QuarantineSpec",
    "RampModel",
    "ReproError",
    "ResilienceSpec",
    "RetryPolicy",
    "RngRegistry",
    "RuntimeOptions",
    "Savanna",
    "ScenarioResult",
    "SensorSpec",
    "Severity",
    "SimEngine",
    "SloSpec",
    "SpanView",
    "SuggestedAction",
    "SupervisedExecutor",
    "Sweep",
    "TaskSpec",
    "TaskState",
    "TelemetrySpec",
    "TenantCell",
    "TenantSpec",
    "TenantsSpec",
    "ThreadedDyflow",
    "TraceSpan",
    "Tracer",
    "VerificationError",
    "WatchStream",
    "WatchdogSpec",
    "WorkflowSpec",
    "XGC_XML",
    "analyze_dataflow",
    "build_report",
    "build_tracer",
    "configure_orchestrator",
    "deepthought2",
    "fix_xml_text",
    "format_report",
    "isosurface_cell_count",
    "lint_xml_text",
    "parse_dyflow_xml",
    "parse_openmetrics",
    "read_journal",
    "read_watch_stream",
    "reason_counts",
    "render_gantt",
    "render_labeled_openmetrics",
    "render_markdown",
    "render_openmetrics",
    "render_sarif",
    "report_from_jsonl",
    "run_gray_scott_experiment",
    "run_lammps_experiment",
    "run_preflight",
    "run_selflint",
    "run_xgc_experiment",
    "scenario_fingerprint",
    "statepoint_id",
    "summit",
    "utilization_from_events",
    "verify_spec",
    "write_dyflow_xml",
    "write_openmetrics",
    "write_report",
]

#: Sub-facade -> names it must expose, in order.
SUBFACADES = {
    "runtime": [
        "DyflowOrchestrator", "ThreadedDyflow", "LiveTaskSpec",
        "RuntimeOptions", "SimEngine", "RngRegistry", "Savanna",
        "DyflowSpec", "configure_orchestrator", "parse_dyflow_xml",
        "write_dyflow_xml",
    ],
    "telemetry": [
        "TelemetrySpec", "Tracer", "NullTracer", "TraceSpan",
        "MetricsRegistry", "build_tracer",
    ],
    "fault": [
        "ResilienceSpec", "RetryPolicy", "WatchdogSpec", "QuarantineSpec",
        "CheckpointSpec", "FaultModelSpec", "ChaosEngine",
    ],
    "journal": [
        "Journal", "JournalSpec", "JournalState", "AppliedOpsLedger",
        "read_journal", "scenario_fingerprint", "CampaignRunner",
    ],
    "lint": [
        "Diagnostic", "Severity", "WitnessEvent", "FixHint", "FixResult",
        "FIXABLE_CODES", "PreflightWarning", "VerificationError",
        "analyze_dataflow", "verify_spec", "lint_xml_text", "fix_spec",
        "fix_xml_text", "run_selflint", "run_preflight", "render_sarif",
    ],
    "fabric": [
        "NetworkSpec", "PartitionWindow", "LinkOverride", "FabricLink",
        "DegradedModeController", "BoundedShedQueue",
    ],
    "campaign": [
        "AdmissionController", "AdmissionResult", "Campaign",
        "CampaignRunner", "CampaignService", "CellFailure", "CellOutcome",
        "ExecutorSpec", "Lease", "MachineArbiter", "SupervisedExecutor",
        "Sweep", "TenantBreaker", "TenantCell", "TenantRegistry",
        "TenantSpec", "TenantState", "TenantsSpec", "canonical_json",
        "run_cell_scenario", "statepoint_hash", "statepoint_id",
    ],
}


def test_surface_snapshot():
    assert list(api.__all__) == API_SURFACE


def test_dir_covers_surface_and_subfacades():
    listing = set(dir(api))
    assert set(API_SURFACE) <= listing
    assert set(SUBFACADES) <= listing


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="definitely_not_an_api_name"):
        api.definitely_not_an_api_name


def test_subfacades_expose_documented_names():
    for sub, names in SUBFACADES.items():
        mod = getattr(api, sub)
        assert list(mod.__all__) == names
        for name in names:
            assert getattr(mod, name) is not None, f"{sub}.{name}"


def test_subfacade_names_are_flat_aliases():
    # The sub-facades are views of the flat surface, not copies.
    for sub, names in SUBFACADES.items():
        mod = getattr(api, sub)
        for name in names:
            if name in api.__all__:
                assert getattr(api, name) is getattr(mod, name), f"{sub}.{name}"


def test_subfacades_importable_as_modules():
    for sub in SUBFACADES:
        mod = importlib.import_module(f"repro.api.{sub}")
        assert mod is getattr(api, sub)


def test_flat_resolution_is_lazy():
    """``import repro.api`` must not pull in corners nobody touched.

    ``repro/__init__`` eagerly wires the runtime, so much of the tree
    loads regardless — but the experiments and lint packages are only
    reachable through the facade and must load on first attribute
    access, not at import.  Run in a subprocess for a clean module
    graph.
    """
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "import repro.api as api\n"
        "for mod in ('repro.experiments', 'repro.lint'):\n"
        "    assert mod not in sys.modules, f'{mod} loaded eagerly'\n"
        "api.run_xgc_experiment, api.verify_spec\n"
        "assert 'repro.experiments' in sys.modules\n"
        "assert 'repro.lint' in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_all_names_resolve():
    for name in api.__all__:
        assert hasattr(api, name), f"repro.api.__all__ lists missing name {name!r}"


def test_all_is_sorted_unique():
    assert len(api.__all__) == len(set(api.__all__))


def test_star_import_matches_all():
    ns: dict = {}
    exec("from repro.api import *", ns)
    exported = {k for k in ns if not k.startswith("_")}
    assert exported == set(api.__all__)


def test_facade_reachable_from_package_root():
    assert repro.api is api
    assert "api" in repro.__all__
    assert importlib.import_module("repro.api") is api


def test_facade_covers_the_main_entry_points():
    for name in (
        "SimEngine", "Savanna", "WorkflowSpec", "DyflowOrchestrator",
        "ThreadedDyflow", "parse_dyflow_xml", "write_dyflow_xml",
        "configure_orchestrator", "TelemetrySpec", "Tracer",
        "build_tracer", "ResilienceSpec",
        "run_gray_scott_experiment", "ReproError",
    ):
        assert name in api.__all__, f"facade is missing {name}"


def test_facade_objects_are_the_canonical_ones():
    from repro.runtime.sim_driver import DyflowOrchestrator
    from repro.sim.engine import SimEngine
    from repro.telemetry import TelemetrySpec

    assert api.SimEngine is SimEngine
    assert api.DyflowOrchestrator is DyflowOrchestrator
    assert api.TelemetrySpec is TelemetrySpec


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_import_only_from_repro_api(path):
    """Every example must go through the facade, never submodules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                assert node.module == "repro.api", (
                    f"{path.name} imports from {node.module}; use repro.api"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("repro"), (
                    f"{path.name} imports {alias.name}; use 'from repro.api import ...'"
                )
