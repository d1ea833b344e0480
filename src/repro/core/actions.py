"""High-level actions suggested by policies (paper §2.2).

Each high-level operation is "concise and easy to understand" and
encapsulates the low-level operations Arbitration later plans.  The set
matches the paper: ADDCPU, RMCPU, STOP, START, RESTART, SWITCH, each
with optional parameters (``adjust-by``, ``restart-script``,
``switch-to``...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class ActionType(enum.Enum):
    ADDCPU = "ADDCPU"        # restart the task with more processes
    RMCPU = "RMCPU"          # restart the task with fewer processes
    STOP = "STOP"            # terminate the task
    START = "START"          # start a task that is not running
    RESTART = "RESTART"      # stop then start the running task
    SWITCH = "SWITCH"        # stop the assessed task, start a replacement
    # Extension (paper §6): a finer-grained control operation "beyond
    # just stopping and relaunching" — deliver new parameters to the
    # running task in place, no restart, no resource movement.
    RECONFIG = "RECONFIG"


# Conflicting action pairs on the same task are resolved by policy
# priority (paper: STOP-START, STOP-RESTART, RMCPU-ADDCPU).
CONFLICTS: frozenset[frozenset[ActionType]] = frozenset(
    {
        frozenset({ActionType.STOP, ActionType.START}),
        frozenset({ActionType.STOP, ActionType.RESTART}),
        frozenset({ActionType.RMCPU, ActionType.ADDCPU}),
        frozenset({ActionType.STOP, ActionType.ADDCPU}),
        frozenset({ActionType.STOP, ActionType.RMCPU}),
        frozenset({ActionType.SWITCH, ActionType.START}),
        frozenset({ActionType.SWITCH, ActionType.RESTART}),
        # Reconfiguring a task that the plan stops/restarts is pointless.
        frozenset({ActionType.RECONFIG, ActionType.STOP}),
        frozenset({ActionType.RECONFIG, ActionType.RESTART}),
    }
)


def actions_conflict(a: ActionType, b: ActionType) -> bool:
    """True when *a* and *b* cannot both apply to one task."""
    if a == b:
        return False
    return frozenset({a, b}) in CONFLICTS


@dataclass(frozen=True)
class SuggestedAction:
    """One policy response: an action on one target task.

    Attributes:
        policy_id: the suggesting policy (carries the priority).
        action: the high-level operation.
        target: the task acted on (``act-on-tasks`` in the XML).
        workflow_id: owning workflow.
        assess_task: the task whose metric triggered the policy.
        params: action parameters (``adjust-by``, ``restart-script``...).
        trigger_time: when the triggering metric value was produced —
            the anchor for response-time accounting (§4.6).
        metric_value: the value that satisfied the evaluation condition.
    """

    policy_id: str
    action: ActionType
    target: str
    workflow_id: str
    assess_task: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    trigger_time: float = 0.0
    metric_value: float = 0.0

    def __post_init__(self) -> None:
        # params is part of a frozen dataclass; freeze content by copy.
        object.__setattr__(self, "params", dict(self.params))


class Reason(str, enum.Enum):
    """Why a suggestion did or did not act (each one Decision emits ends in
    one of the first eleven; a SWITCH in its start half's), why a waiting
    retry was skipped, and why an op no policy asked for was planned.
    Renders and hashes as its value: a journaled string is the same key."""

    GRANTED = "granted"
    SUPERSEDED = "superseded"  # lost a priority conflict, or repeats one
    NO_OP = "no-op"
    CONFLICTS_WITH_PLAN = "conflicts-with-plan"
    DEPENDENCY_RESTART = "dependency-restart"
    PARKED = "parked"  # queued: no resources, quota included
    DISCARDED_GROWTH = "discarded-growth"
    GATED_WARMUP = "gated-warmup"
    GATED_SETTLE = "gated-settle"
    GATED_IN_FLIGHT = "gated-in-flight"
    GATED_DEGRADED = "gated-degraded"
    WAITING_UNCHANGED = "waiting-unchanged"
    VICTIM = "victim"
    DEPENDENCY = "dependency"
    WAITING_QUEUE = "waiting-queue"

    __hash__ = str.__hash__
    __str__ = str.__str__  # the value, as a plain str; format() uses it too


@dataclass(frozen=True)
class Outcome:
    """How one suggestion ended, at ``time``: a run-log record.

    ``plan_id`` names the plan it landed in (granted, or a refusal line
    of a plan that was built); ``trigger`` is when the data that fired
    the policy was produced.
    """

    policy_id: str
    action: ActionType
    target: str
    reason: Reason
    time: float = 0.0
    plan_id: str | None = None
    trigger: float | None = None

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "outcome", "time": self.time, "policy_id": self.policy_id,
            "action": self.action.value, "target": self.target, "reason": self.reason.value,
            "plan_id": self.plan_id, "trigger": self.trigger,
        }


#: Why ``plan.discarded`` says a refused suggestion did not act.
_REFUSALS = {
    Reason.CONFLICTS_WITH_PLAN: "conflicts with plan",
    Reason.DEPENDENCY_RESTART: "dependency restart",
    Reason.PARKED: "queued, no resources",
    Reason.DISCARDED_GROWTH: "no resources, no victim",
}


def render_outcome(policy_id: str, action: str, target: str, reason=Reason.GRANTED) -> str:
    """A ``plan.accepted`` (granted) or ``plan.discarded`` line."""
    line = f"{policy_id}:{action}:{target}"
    return line if reason is Reason.GRANTED else f"{line} ({_REFUSALS[reason]})"


def tally(log, outcome: Outcome, tracer) -> None:
    """Record *outcome* in the run *log* and count its reason."""
    log.append(outcome)
    count_reason(outcome.reason, tracer)


def count_reason(reason: Reason, tracer) -> None:
    """Count *reason* in the ``outcome.<reason>`` counter."""
    if tracer.enabled:
        tracer.metrics.counter("outcome." + reason.value).inc()


def reason_counts(log) -> dict[str, int]:
    """Per-reason totals of the outcomes in *log*, keyed by value."""
    counts: dict[str, int] = {}
    for o in log.of_type(Outcome):
        counts[o.reason] = counts.get(o.reason, 0) + 1
    return counts
