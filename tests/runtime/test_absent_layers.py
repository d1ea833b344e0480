"""An optional layer is off by being absent, and then it does no work.

With no ``<telemetry>``, ``<observability>``, ``<journal>`` or
``<network>`` section, the paper's Gray-Scott scenario and a two-tenant
campaign make zero calls into the recording side of each layer: span and
point creation on the real :class:`Tracer` (the NullTracer overrides
every one of them), metric lookups on a real :class:`MetricsRegistry`,
WAL appends, health evaluation, fabric sends, the fleet engine and the
watch stream.  Counts, not wall time: a disabled path that does one call
of work fails here by name.  A present-layer run of the same scenario is
the control that the wrappers see the calls, and decides nothing
differently.
"""

import functools
import inspect
import json
import os

import pytest

from repro.apps import ConstantModel, IterativeApp
from repro.campaign import CampaignService, TenantCell, TenantSpec, TenantsSpec
from repro.experiments import run_gray_scott_experiment
from repro.fabric import FabricLink
from repro.journal import JournalSpec, WalWriter, scenario_fingerprint
from repro.observability import (
    AnomalySpec,
    FleetHealthEngine,
    FleetSpec,
    HealthEngine,
    ObservabilitySpec,
    SloSpec,
    WatchStream,
)
from repro.telemetry import MetricsRegistry, TelemetrySpec, Tracer
from repro.wms import TaskSpec, WorkflowSpec

FLEET_METHODS = tuple(
    name for name, fn in vars(FleetHealthEngine).items()
    if inspect.isfunction(fn) and (name == "__init__" or not name.startswith("_"))
)

#: class -> the methods counted on it.
TARGETS = {
    Tracer: ("span", "start_span", "end_span", "add_span", "point", "record"),
    MetricsRegistry: ("counter", "histogram", "gauge"),
    WalWriter: ("append",),
    HealthEngine: ("tick",),
    FabricLink: ("send",),
    FleetHealthEngine: FLEET_METHODS,
    WatchStream: ("emit",),
}

SLOS = (SloSpec(metric="plan.response", stat="p95", op="LT", threshold=60.0),)
ANOMALIES = (AnomalySpec(metric="stage.monitor.latency", stat="p95", window=20, z=4.0),)
# A loss-free fabric: every envelope crosses a FabricLink, nothing is dropped.
CLEAN_NETWORK = "<resilience><network/></resilience>"


@pytest.fixture
def calls(monkeypatch):
    """Wrap every target method; returns ``{"Class.method": count}``."""
    counts = {f"{cls.__name__}.{name}": 0 for cls, names in TARGETS.items() for name in names}

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, names in TARGETS.items():
        for name in names:
            key = f"{cls.__name__}.{name}"
            monkeypatch.setattr(cls, name, counting(key, vars(cls)[name]))
    return counts


def called(counts: dict) -> dict:
    return {k: n for k, n in counts.items() if n}


def gray_scott(machine="summit", **layers):
    return scenario_fingerprint(run_gray_scott_experiment(machine, **layers))


@functools.cache
def absent(machine="summit"):
    """The fingerprint of a run with no optional section."""
    return gray_scott(machine)


class TestGrayScott:
    def test_absent_sections_make_no_calls(self, calls):
        gray_scott()
        assert called(calls) == {}

    def test_present_sections_are_seen_and_change_nothing(self, calls, tmp_path):
        present = gray_scott(
            telemetry=TelemetrySpec(),
            observability=ObservabilitySpec(
                slos=SLOS, anomalies=ANOMALIES,
                report_json_path=str(tmp_path / "report.json"),
            ),
            journal=JournalSpec(dir=str(tmp_path / "wal")),
        )
        assert present == absent()
        gs_targets = [k for k in calls if not k.startswith(("Fleet", "Watch", "FabricLink"))]
        assert all(calls[k] for k in gs_targets if k != "Tracer.span"), calls
        gray_scott(xml_extra=CLEAN_NETWORK)
        assert calls["FabricLink.send"] > 0

    @pytest.mark.parametrize("mode", ["health", "full"])
    def test_observability_modes_keep_the_fingerprint(self, mode, tmp_path):
        outputs = {}
        if mode == "full":
            outputs = dict(
                report_path=str(tmp_path / "report.md"),
                report_json_path=str(tmp_path / "report.json"),
                openmetrics_path=str(tmp_path / "metrics.prom"),
            )
        spec = ObservabilitySpec(eval_every=5.0, slos=SLOS, anomalies=ANOMALIES, **outputs)
        assert gray_scott(telemetry=TelemetrySpec(), observability=spec) == absent()
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in outputs.values())

    @pytest.mark.parametrize("machine", ["summit", "deepthought2"])
    @pytest.mark.parametrize("fsync", ["off", "batch", "always"])
    def test_journal_fsync_modes_keep_the_fingerprint(self, machine, fsync, tmp_path):
        journal = JournalSpec(dir=str(tmp_path / "wal"), fsync=fsync)
        assert gray_scott(machine, journal=journal) == absent(machine)


def workflow(steps: int) -> WorkflowSpec:
    return WorkflowSpec(f"wf-{steps}", [TaskSpec(
        "T", IterativeApp(ConstantModel(1.0), total_steps=steps), nprocs=2)])


def campaign(journal_root=None, observability=None) -> str:
    """Three cells per tenant, each a simulated workflow run."""
    svc = CampaignService(
        TenantsSpec(nodes=4, cores_per_node=4,
                    tenants=(TenantSpec("alice"), TenantSpec("bob"))),
        journal_root=journal_root,
        observability=observability,
    )
    for i in range(3):
        for tenant in ("alice", "bob"):
            svc.submit(TenantCell(tenant, workflow, params={"steps": 3 + i}, nprocs=2))
    records = svc.run_pending()
    return json.dumps(
        [(r["tenant"], r["cell_id"], r["status"], r["result"]) for r in records],
        sort_keys=True,
    )


class TestCampaign:
    def test_absent_sections_make_no_calls(self, calls):
        campaign()
        assert called(calls) == {}

    def test_present_fleet_is_seen_and_changes_nothing(self, calls, tmp_path):
        absent = campaign()
        present = campaign(
            journal_root=str(tmp_path),
            observability=ObservabilitySpec(fleet=FleetSpec()),
        )
        assert present == absent
        assert calls["WatchStream.emit"] > 0 and calls["WalWriter.append"] > 0
        assert calls["FleetHealthEngine.__init__"] == 1
        assert calls["FleetHealthEngine.record_cell"] == 6
