"""End-to-end telemetry: the quickstart scenario with tracing enabled.

Runs the same two-task workflow as ``examples/quickstart.py`` under a
recording tracer and checks the whole pipeline: spans exist for all four
control-loop stages, per-stage latency histograms fill, and the JSONL log
lands on disk.
"""

import json

import pytest

from repro.api import (
    ActionType,
    Allocation,
    AmdahlModel,
    ConstantModel,
    CouplingType,
    DependencySpec,
    DyflowOrchestrator,
    GroupBySpec,
    IterativeApp,
    PolicyApplication,
    PolicySpec,
    RngRegistry,
    Savanna,
    SensorSpec,
    SimEngine,
    TaskSpec,
    TelemetrySpec,
    WorkflowSpec,
    summit,
)
from repro.runtime import RuntimeOptions
from tests.telemetry.spans import children as child_spans
from tests.telemetry.spans import finished

STAGES = ("monitor", "decision", "arbitration", "actuation")


def run_quickstart(telemetry=None, tracer=None, seed=1):
    engine = SimEngine()
    machine = summit(num_nodes=4)
    allocation = Allocation("alloc-0", machine, machine.nodes, walltime_limit=7200.0)
    workflow = WorkflowSpec(
        "QUICKSTART",
        [
            TaskSpec("Sim", lambda: IterativeApp(ConstantModel(8.0), total_steps=40), nprocs=40),
            TaskSpec("Analysis", lambda: IterativeApp(AmdahlModel(serial=4, parallel=240)), nprocs=12),
        ],
        [DependencySpec("Analysis", "Sim", CouplingType.TIGHT)],
    )
    launcher = Savanna(engine, workflow, allocation, rng=RngRegistry(seed=seed))
    orch = DyflowOrchestrator(launcher, warmup=40.0, settle=40.0, record_history=True,
                              options=RuntimeOptions(telemetry=telemetry), tracer=tracer)
    orch.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task("Analysis", "PACE", var="looptime")
    orch.add_policy(
        PolicySpec(
            "INC_ON_PACE", "PACE", eval_op="GT", threshold=12.0,
            action=ActionType.ADDCPU, history_window=4, history_op="AVG", frequency=5.0,
        )
    )
    orch.apply_policy(
        PolicyApplication("INC_ON_PACE", "QUICKSTART", ("Analysis",),
                          assess_task="Analysis", action_params={"adjust-by": 12})
    )
    launcher.launch_workflow()
    orch.start(stop_when=launcher.all_idle)
    engine.run(until=10_000)
    return engine, orch


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("telemetry")
    spec = TelemetrySpec(jsonl_path=str(tmp / "events.jsonl"))
    engine, orch = run_quickstart(telemetry=spec)
    orch.finalize_telemetry()
    return engine, orch, spec


def test_run_still_adjusts_the_analysis(traced):
    _engine, orch, _spec = traced
    assert orch.plans, "the INC policy should have fired"
    final = orch.launcher.record("Analysis").current
    assert final.nprocs > 12


def test_spans_exist_for_all_four_stages(traced):
    _engine, orch, _spec = traced
    tracer = orch.tracer
    by_category = {c: finished(tracer, category=c) for c in STAGES}
    for stage, spans in by_category.items():
        assert spans, f"no spans recorded for stage {stage!r}"
    # Specific span names on the canonical path.
    assert finished(tracer, "monitor.ingest", "monitor")
    assert finished(tracer, "decision.tick", "decision")
    assert finished(tracer, "arbitration.arbitrate", "arbitration")
    assert finished(tracer, "actuation.plan", "actuation")
    assert finished(tracer, "wms.launch", "wms")


def test_per_stage_latency_histograms_fill(traced):
    _engine, orch, _spec = traced
    metrics = orch.tracer.metrics
    for stage in STAGES:
        hist = metrics.histogram(f"stage.{stage}.latency")
        assert hist.count > 0, f"stage.{stage}.latency never observed"
        assert hist.p95 >= hist.p50 >= 0.0
    # Actuation (graceful stops) dominates the response, as in §4.6.
    assert metrics.histogram("stage.actuation.latency").p50 > \
        metrics.histogram("stage.decision.latency").p50
    assert metrics.histogram("plan.response").count == len(orch.plans)


def test_stage_spans_nest_under_loop_ticks(traced):
    _engine, orch, _spec = traced
    tracer = orch.tracer
    ticks = {s.span_id for s in finished(tracer, "loop.tick", "loop")}
    assert ticks
    arb = finished(tracer, "arbitration.arbitrate", "arbitration")
    assert arb and all(s.parent_id in ticks for s in arb)
    # Plan executions hang off a tick too, with per-op children below.
    plans = finished(tracer, "actuation.plan", "actuation")
    assert plans
    for plan_span in plans:
        children = child_spans(tracer, plan_span)
        assert children, "plan span has no per-op child spans"
        assert all(c.name.startswith("op.") for c in children)


def test_jsonl_log_written(traced):
    _engine, _orch, spec = traced
    lines = [ln for ln in open(spec.jsonl_path, encoding="utf-8") if ln.strip()]
    assert lines
    records = [json.loads(ln) for ln in lines]
    assert all({"kind", "time"} <= set(r) for r in records)
    assert any(r["kind"] == "span" for r in records)


def test_identical_to_untraced_run(traced):
    """Telemetry must not perturb the simulation."""
    engine_traced, orch_traced, _spec = traced
    engine_plain, orch_plain = run_quickstart()
    assert not orch_plain.tracer.enabled
    assert engine_plain.now == engine_traced.now
    assert len(orch_plain.plans) == len(orch_traced.plans)
    assert [p.created for p in orch_plain.plans] == [p.created for p in orch_traced.plans]

