"""DYFLOW proper: the four dynamic-management stages.

The paper's conceptual model compartmentalizes orchestration into
**Monitor → Decision → Arbitration → Actuation**, all running
continuously and feeding each other (§2).  Users program the stages
through sensors, policies, and rules — either directly with the classes
here or through the XML interface in :mod:`repro.xmlspec`.
"""

from repro.core.actions import ActionType, SuggestedAction, reason_counts
from repro.core.events import MetricUpdate
from repro.core.sensors import (
    GroupBySpec,
    JoinSpec,
    SensorInstance,
    SensorSpec,
    REDUCTIONS,
)
from repro.core.policy import PolicyApplication, PolicyRuntime, PolicySpec
from repro.core.decision import DecisionStage
from repro.core.rules import ArbitrationRules
from repro.core.lowlevel import ActionPlan, LowLevelOp
from repro.core.arbitration import ArbitrationStage
from repro.core.actuation import ActuationStage
from repro.core.monitor import MonitorClient, MonitorServer, MonitorTaskBinding

__all__ = [
    "ActionType",
    "SuggestedAction",
    "reason_counts",
    "MetricUpdate",
    "SensorSpec",
    "SensorInstance",
    "GroupBySpec",
    "JoinSpec",
    "REDUCTIONS",
    "PolicySpec",
    "PolicyApplication",
    "PolicyRuntime",
    "DecisionStage",
    "ArbitrationRules",
    "LowLevelOp",
    "ActionPlan",
    "ArbitrationStage",
    "ActuationStage",
    "MonitorClient",
    "MonitorServer",
    "MonitorTaskBinding",
]
