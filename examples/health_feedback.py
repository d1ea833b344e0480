#!/usr/bin/env python
"""Health feedback: a policy that reacts to the orchestrator's own SLOs.

The observability engine evaluates SLOs over the control loop's metrics
and publishes the results back into the Monitor stage as ordinary sensor
streams (source type ``HEALTH``, pseudo-task ``__dyflow__``).  Policies
can therefore react to *orchestrator* health exactly as they react to
application metrics.

Here a pace policy grows the under-provisioned analysis through
stop-and-relaunch plans; each plan's end-to-end response takes tens of
seconds, so the ``plan.response p95 < 10 s`` SLO fires, and a second
policy — bound to the HEALTH stream — responds by delivering an in-place
RECONFIG that throttles the simulation's step scale (trading resolution
for pace instead of yet another costly restart).

Run:  python examples/health_feedback.py
"""

from repro.api import (
    HEALTH_TASK,
    ActionType,
    Allocation,
    AmdahlModel,
    ConstantModel,
    CouplingType,
    DependencySpec,
    DyflowOrchestrator,
    GroupBySpec,
    IterativeApp,
    ObservabilitySpec,
    PolicyApplication,
    PolicySpec,
    RngRegistry,
    RuntimeOptions,
    Savanna,
    SensorSpec,
    SimEngine,
    SloSpec,
    TaskSpec,
    TelemetrySpec,
    WorkflowSpec,
    summit,
)


def build(seed: int = 1):
    engine = SimEngine()
    machine = summit(num_nodes=4)
    allocation = Allocation("alloc-0", machine, machine.nodes, walltime_limit=7200.0)
    workflow = WorkflowSpec(
        "HEALTH-DEMO",
        [
            TaskSpec("Sim", lambda: IterativeApp(ConstantModel(8.0), total_steps=60), nprocs=40),
            TaskSpec("Analysis", lambda: IterativeApp(AmdahlModel(serial=4, parallel=240)), nprocs=12),
        ],
        [DependencySpec("Analysis", "Sim", CouplingType.TIGHT)],
    )
    launcher = Savanna(engine, workflow, allocation, rng=RngRegistry(seed=seed))

    # The orchestrator watches itself: once a stop-and-relaunch plan has
    # executed, its end-to-end response (~40 s of graceful teardown and
    # relaunch) violates this objective and the alert stream flips to 1.0.
    observability = ObservabilitySpec(
        eval_every=5.0,
        slos=(
            SloSpec(
                metric="plan.response", stat="p95",
                op="LT", threshold=10.0, severity="warning",
            ),
        ),
    )
    orch = DyflowOrchestrator(
        launcher, warmup=40.0, settle=40.0, record_history=True,
        options=RuntimeOptions(telemetry=TelemetrySpec(),
                               observability=observability),
    )

    # Application monitoring: the usual pace sensor on the analysis.
    orch.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task("Analysis", "PACE", var="looptime")
    orch.add_policy(
        PolicySpec(
            "INC_ON_PACE", "PACE", eval_op="GT", threshold=12.0,
            action=ActionType.ADDCPU, history_window=4, history_op="AVG", frequency=5.0,
        )
    )
    orch.apply_policy(
        PolicyApplication("INC_ON_PACE", "HEALTH-DEMO", ("Analysis",),
                          assess_task="Analysis", action_params={"adjust-by": 12})
    )

    # Self-monitoring: subscribe to the SLO's alert stream and throttle
    # the simulation in place while the objective is violated.
    orch.add_sensor(SensorSpec("ORCH_HEALTH", "HEALTH", (GroupBySpec("task", "MAX"),)))
    orch.monitor_task(HEALTH_TASK, "ORCH_HEALTH", var="alert.plan.response.p95")
    orch.add_policy(
        PolicySpec(
            "THROTTLE_ON_SLO", "ORCH_HEALTH", eval_op="GT", threshold=0.5,
            action=ActionType.RECONFIG, history_window=1, frequency=10.0,
        )
    )
    orch.apply_policy(
        PolicyApplication("THROTTLE_ON_SLO", "HEALTH-DEMO", ("Sim",),
                          assess_task=HEALTH_TASK, action_params={"step-scale": 0.8})
    )
    return engine, launcher, orch


def main() -> None:
    engine, launcher, orch = build()
    launcher.launch_workflow()
    orch.start(stop_when=launcher.all_idle)
    engine.run(until=10_000)
    orch.finalize_telemetry()

    print(f"workflow finished at t={engine.now:.0f}s (simulated)")
    for alert in orch.health.alerts:
        print(f"  alert @ t={alert.time:6.1f}s  {alert.kind:8s}  {alert.source}: {alert.message}")
    for plan in orch.plans:
        ops = "; ".join(op.describe() for op in plan.ordered_ops())
        print(f"  plan @ t={plan.created:6.1f}s  {ops}")
    reconfigs = [p for p in orch.plans if any(op.op == "reconfig_task" for op in p.ops)]
    print(f"in-place reconfigurations delivered: {len(reconfigs)}")


if __name__ == "__main__":
    main()
