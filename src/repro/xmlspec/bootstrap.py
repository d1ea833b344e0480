"""Bootstrap: wire a parsed XML spec into a running orchestrator.

This is the paper's Bootstrap module: "parses the XML file with user
orchestration specifications of the workflow and initiates threads
corresponding to the Monitor, Decision, Arbitrator modules providing
them with essential information."
"""

from __future__ import annotations

from repro.core.rules import ArbitrationRules
from repro.errors import XmlSpecError
from repro.runtime.options import RuntimeOptions
from repro.runtime.sim_driver import DyflowOrchestrator
from repro.telemetry.config import TelemetrySpec
from repro.wms.launcher import Savanna
from repro.xmlspec.model import DyflowSpec


def configure_orchestrator(
    launcher: Savanna,
    spec: DyflowSpec,
    warmup: float = 120.0,
    settle: float = 120.0,
    poll_interval: float = 1.0,
    num_clients: int = 1,
    allow_victims: bool = True,
    record_history: bool = False,
    graceful_stops: bool = True,
    telemetry: TelemetrySpec | None = None,
    tracer=None,
    observability=None,
    journal=None,
    ignore_crash_requests: bool = False,
    on_crash=None,
    preflight: str = "off",
) -> DyflowOrchestrator:
    """Build a :class:`DyflowOrchestrator` for *launcher* from *spec*.

    Sensors, monitor-task bindings, policies, applications and rules are
    installed; the XML's rule dependencies are merged over the workflow's
    own dependency declarations.  Runtime configuration starts from
    :meth:`RuntimeOptions.from_spec` — the XML's ``<resilience>``,
    ``<telemetry>``, ``<journal>`` and ``<observability>`` sections — and
    each keyword argument (*telemetry*, *journal*, *observability*,
    *preflight*) overrides its section when given.  These keywords are
    the one way to configure a runtime here; the orchestrator
    constructors take ``options=`` only.  A spec resilience section
    configures the launcher's recovery layer *before* the orchestrator
    is built, so the orchestrator can wire the watchdog and the chaos
    engine; without one, any programmatically installed resilience spec
    is left intact.
    *tracer*, *ignore_crash_requests* and *on_crash* pass straight
    through to the orchestrator (used when rebuilding one for
    :meth:`DyflowOrchestrator.resume_from`).
    """
    workflow_id = launcher.workflow.workflow_id
    overrides = {
        k: v
        for k, v in (
            ("telemetry", telemetry),
            ("journal", journal),
            ("observability", observability),
        )
        if v is not None
    }
    if preflight != "off":
        overrides["preflight"] = preflight
    opts = RuntimeOptions.from_spec(spec).override(**overrides)
    rule = spec.rules.get(workflow_id)
    rules = ArbitrationRules.from_workflow(
        launcher.workflow,
        task_priorities=rule.task_priorities if rule else None,
        policy_priorities=rule.policy_priorities if rule else None,
    )
    if rule is not None:
        known = {(d.task, d.parent) for d in rules.dependencies}
        for dep in rule.dependencies:
            if (dep.task, dep.parent) not in known:
                rules.dependencies.append(dep)

    orch = DyflowOrchestrator(
        launcher,
        rules,
        warmup=warmup,
        settle=settle,
        poll_interval=poll_interval,
        num_clients=num_clients,
        allow_victims=allow_victims,
        record_history=record_history,
        graceful_stops=graceful_stops,
        options=opts,
        tracer=tracer,
        ignore_crash_requests=ignore_crash_requests,
        on_crash=on_crash,
    )
    for sensor in spec.sensors.values():
        orch.add_sensor(sensor)
    for i, mt in enumerate(spec.monitor_tasks):
        if mt.workflow_id != workflow_id:
            continue
        orch.monitor_task(
            mt.task,
            mt.sensor_id,
            info_source=mt.info_source,
            var=mt.info,
            client=i % num_clients,
        )
    for policy in spec.policies.values():
        orch.add_policy(policy)
    applied = 0
    for app in spec.applications:
        if app.workflow_id != workflow_id:
            continue
        orch.apply_policy(app)
        applied += 1
    if spec.applications and applied == 0:
        raise XmlSpecError(
            f"spec has policy applications but none for workflow {workflow_id!r}"
        )
    return orch
