"""The parsed form of a DYFLOW XML specification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.campaign.spec import TenantsSpec
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.sensors.base import SensorSpec
from repro.errors import XmlSpecError
from repro.journal.spec import JournalSpec
from repro.observability.spec import ObservabilitySpec
from repro.resilience.spec import ResilienceSpec
from repro.telemetry.config import TelemetrySpec
from repro.util.xmlfield import check_fields, child
from repro.wms.spec import DependencySpec


@dataclass
class MonitorTaskSpec:
    """One ``<monitor-task>``/``<use-sensor>`` binding."""

    task: str
    workflow_id: str
    sensor_id: str
    info_source: str | None = None
    info: str | None = None  # the variable name ("looptime")
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class RuleSpec:
    """One ``<rule-for>`` block: priorities and dependencies."""

    workflow_id: str
    task_priorities: dict[str, int] = field(default_factory=dict)
    policy_priorities: dict[str, int] = field(default_factory=dict)
    dependencies: list[DependencySpec] = field(default_factory=list)


@dataclass
class DyflowSpec:
    """A complete user orchestration specification."""

    sensors: dict[str, SensorSpec] = field(default_factory=dict)
    monitor_tasks: list[MonitorTaskSpec] = field(default_factory=list)
    policies: dict[str, PolicySpec] = field(default_factory=dict)
    applications: list[PolicyApplication] = field(default_factory=list)
    rules: dict[str, RuleSpec] = field(default_factory=dict)
    resilience: ResilienceSpec | None = child(ResilienceSpec)
    telemetry: TelemetrySpec | None = child(TelemetrySpec)
    journal: JournalSpec | None = child(JournalSpec)
    observability: ObservabilitySpec | None = child(ObservabilitySpec)
    tenants: TenantsSpec | None = child(TenantsSpec)

    def validate(self, strict: bool = False) -> None:
        """Cross-reference checks a schema cannot express.

        With ``strict=True``, additionally reject a ``<rule>`` whose
        task-priority references a task that nothing in the document
        monitors, acts on, or depends on — historically the parser
        accepted these silently and the dangling priority was ignored
        at arbitration time.
        """
        check_fields(self, XmlSpecError, "dyflow")  # each config section validates itself
        for mt in self.monitor_tasks:
            if mt.sensor_id not in self.sensors:
                raise XmlSpecError(
                    f"monitor-task {mt.task!r} uses unknown sensor {mt.sensor_id!r}"
                )
        for app in self.applications:
            if app.policy_id not in self.policies:
                raise XmlSpecError(
                    f"apply-policy references unknown policy {app.policy_id!r}"
                )
        for policy in self.policies.values():
            if policy.sensor_id not in self.sensors:
                raise XmlSpecError(
                    f"policy {policy.policy_id!r} uses unknown sensor {policy.sensor_id!r}"
                )
            sensor = self.sensors[policy.sensor_id]
            grans = {g.granularity for g in sensor.group_by}
            if policy.granularity not in grans:
                raise XmlSpecError(
                    f"policy {policy.policy_id!r} wants granularity "
                    f"{policy.granularity!r} but sensor {policy.sensor_id!r} "
                    f"only groups by {sorted(grans)}"
                )
        for rule in self.rules.values():
            for pid in rule.policy_priorities:
                if pid not in self.policies:
                    raise XmlSpecError(f"policy-priority for unknown policy {pid!r}")
        if strict:
            from repro.lint.speclint import unmonitored_rule_tasks

            for workflow_id, task in unmonitored_rule_tasks(self):
                raise XmlSpecError(
                    f"rule for workflow {workflow_id!r} prioritizes task "
                    f"{task!r}, which no monitor-task, apply-policy, or "
                    "dependency in the document mentions"
                )
