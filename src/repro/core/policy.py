"""Policies: the Decision stage's programmable constructs (paper §2.2).

A policy names the sensor output to assess (at a granularity), an
optional history window with a pre-analysis operation, an evaluation
condition against a threshold, a suggested action, and an evaluation
frequency.  Policies are portable: one :class:`PolicySpec` can be applied
to many tasks via :class:`PolicyApplication` with different parameters —
exactly the reuse the XML interface exposes.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any

from repro.core.actions import ActionType, SuggestedAction
from repro.core.events import MetricUpdate
from repro.core.sensors.groupby import GRANULARITIES
from repro.errors import PolicyError
from repro.util.stats import SlidingWindow
from repro.util.validation import check_in, check_positive

EVAL_OPS = ("GT", "LT", "GE", "LE", "EQ", "NE")
HISTORY_OPS = ("AVG", "MAX", "MIN", "SUM", "LAST", "MEDIAN", "TREND")
_EQ_TOL = 1e-9


def eval_condition(op: str, value: float, threshold: float) -> bool:
    """Apply an evaluation condition (EQ/NE use a small float tolerance)."""
    op = op.upper()
    if op == "GT":
        return value > threshold
    if op == "LT":
        return value < threshold
    if op == "GE":
        return value >= threshold
    if op == "LE":
        return value <= threshold
    if op == "EQ":
        return abs(value - threshold) <= _EQ_TOL
    if op == "NE":
        return abs(value - threshold) > _EQ_TOL
    raise PolicyError(f"unknown eval op {op!r}; known: {EVAL_OPS}")


@dataclass(frozen=True)
class PolicySpec:
    """A reusable policy definition.

    Attributes:
        policy_id: unique name (referenced by arbitration rules).
        sensor_id: sensor output to assess.
        granularity: which of the sensor's group-by streams to use.
        eval_op / threshold: the evaluation condition.
        action: suggested high-level action when the condition holds.
        history_window: >1 enables pre-analysis over a sliding window
            (the paper's PACE policies average the latest 10 values);
            1 evaluates each incoming value instantaneously.
        history_op: pre-analysis operation over the window.
        frequency: minimum seconds between evaluations (events with
            transitory effects are skipped, §2.2).
        default_params: baseline action parameters, overridable per
            application.
    """

    policy_id: str
    sensor_id: str
    eval_op: str
    threshold: float
    action: ActionType
    granularity: str = "task"
    history_window: int = 1
    history_op: str = "AVG"
    frequency: float = 5.0
    default_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_in(self.eval_op.upper(), EVAL_OPS, "eval_op")
        check_in(self.history_op.upper(), HISTORY_OPS, "history_op")
        check_in(self.granularity, GRANULARITIES, "granularity")
        check_positive(self.history_window, "history_window")
        if self.frequency < 0:
            raise PolicyError(f"frequency must be >= 0, got {self.frequency}")


@dataclass(frozen=True)
class PolicyApplication:
    """Bind a policy to a workflow: which task to assess, which to act on.

    ``assess_task`` may be "" for workflow-granularity policies.  Each
    task in ``act_on_tasks`` receives the suggested action with
    ``action_params`` merged over the spec defaults.
    """

    policy_id: str
    workflow_id: str
    act_on_tasks: tuple[str, ...]
    assess_task: str = ""
    action_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.act_on_tasks:
            raise PolicyError(f"application of {self.policy_id!r} has no act-on tasks")


class PolicyRuntime:
    """One applied policy: history, pending values, frequency gating."""

    def __init__(self, spec: PolicySpec, application: PolicyApplication) -> None:
        if spec.policy_id != application.policy_id:
            raise PolicyError(
                f"application policy id {application.policy_id!r} != spec {spec.policy_id!r}"
            )
        self.spec = spec
        self.application = application
        self._window = SlidingWindow(max(spec.history_window, 1))
        self._pending: list[tuple[float, float]] = []  # (value, data time)
        self._last_eval: float | None = None
        self._last_time = 0.0
        self.fired = 0
        # Set by track(): the owning stage's set of runtime indices that
        # can answer, and this runtime's index in it.  ``bucket`` is the
        # frequency bucket the stage parked this runtime until (None: not
        # parked).  Derived from the state above, never journaled.
        self._answerable: set[int] | None = None
        self._index = -1
        self.bucket: int | None = None

    def track(self, index: int, answerable: set[int]) -> None:
        """Keep *index* in *answerable* while :meth:`can_answer` holds and
        the runtime is not parked.

        A Decision stage evaluates only the runtimes in that set, so a
        tick costs nothing for policies with no data to assess.
        """
        self._index = index
        self._answerable = answerable
        self._retrack()

    def _retrack(self) -> None:
        if self._answerable is not None:
            if self.can_answer() and self.bucket is None:
                self._answerable.add(self._index)
            else:
                self._answerable.discard(self._index)

    # -- ingestion ------------------------------------------------------------
    def matches(self, u: MetricUpdate) -> bool:
        spec, app = self.spec, self.application
        if u.sensor_id != spec.sensor_id or u.granularity != spec.granularity:
            return False
        if u.workflow_id != app.workflow_id:
            return False
        if spec.granularity in ("task", "node-task") and app.assess_task:
            return u.task == app.assess_task
        return True

    def ingest(self, u: MetricUpdate) -> bool:
        """Store a matching update; returns whether it matched."""
        if not self.matches(u):
            return False
        self.accept(u)
        return True

    def accept(self, u: MetricUpdate) -> None:
        """Store an update the caller has already routed to this runtime.

        The Decision stage's routing index guarantees :meth:`matches`
        holds, so the hot path skips re-checking the predicate.
        """
        self._window.push(u.value)
        self._pending.append((u.value, u.time))
        if u.time > self._last_time:
            self._last_time = u.time
        if self._answerable is not None and self.bucket is None:
            # A parked runtime stays parked: new data does not make it due.
            self._answerable.add(self._index)

    # -- evaluation -----------------------------------------------------------
    def due(self, now: float) -> bool:
        """Evaluate on absolute frequency boundaries (0, f, 2f, ...).

        Aligning every policy to the same wall-clock grid means policies
        with equal frequency respond in the *same* Decision batch — the
        paper's Decision module sends all policy responses "as a single
        JSON message", which is what lets Arbitration weigh the analyses'
        competing suggestions against each other (§4.4).
        """
        if self._last_eval is None:
            return True
        freq = self.spec.frequency
        if freq <= 0:
            return True
        return math.floor(now / freq) > math.floor(self._last_eval / freq)

    def next_bucket(self) -> int | None:
        """The first frequency bucket ``floor(now / f)`` at which
        :meth:`due` holds again, or None when it holds at every time."""
        freq = self.spec.frequency
        if self._last_eval is None or freq <= 0:
            return None
        return math.floor(self._last_eval / freq) + 1

    def can_answer(self) -> bool:
        """Would a due :meth:`evaluate` assess anything?

        True with pending values, and — for a windowed policy — while the
        window holds history.  When False, ``evaluate`` returns ``[]``
        and changes no state, whatever the time.
        """
        return bool(self._pending) or (
            self.spec.history_window > 1 and len(self._window) > 0
        )

    def evaluate(self, now: float) -> list[SuggestedAction]:
        """Run the evaluation condition if due; returns suggested actions.

        With a history window the pre-analysed window value is checked —
        and keeps being checked at every due evaluation while the window
        stays in violation, even with no fresh data ("the average time
        per timestep was above the threshold", §4.4, holds across slow
        metric streams).  Without a window, every pending value is
        checked individually so exact-match (EQ) conditions cannot slip
        through between polls, and each value is consumed exactly once.
        """
        if not self.can_answer() or not self.due(now):
            return []
        spec = self.spec
        if spec.history_window > 1:
            candidates = [(self._preanalysis(), self._last_time)]
        else:
            candidates = list(self._pending)
        self._last_eval = now
        self._pending.clear()
        for value, data_time in candidates:
            if eval_condition(spec.eval_op, value, spec.threshold):
                self.fired += 1
                params = dict(spec.default_params)
                params.update(self.application.action_params)
                return [
                    SuggestedAction(
                        policy_id=spec.policy_id,
                        action=spec.action,
                        target=target,
                        workflow_id=self.application.workflow_id,
                        assess_task=self.application.assess_task,
                        params=params,
                        trigger_time=data_time,
                        metric_value=value,
                    )
                    for target in self.application.act_on_tasks
                ]
        return []

    def _preanalysis(self) -> float:
        op = self.spec.history_op.upper()
        if op == "AVG":
            return self._window.mean()
        if op == "MAX":
            return self._window.max()
        if op == "MIN":
            return self._window.min()
        if op == "SUM":
            return self._window.sum()
        if op == "LAST":
            return self._window.last()
        if op == "MEDIAN":
            return statistics.median(self._window.values())
        if op == "TREND":
            return self._window.trend()
        raise PolicyError(f"unknown history op {op!r}")

    def reset_history(self) -> None:
        """Clear history (used when the assessed task restarts)."""
        self._window.clear()
        self._pending.clear()
        self._retrack()

    # -- crash recovery --------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "window": list(self._window.values()),
            "pending": [[v, t] for v, t in self._pending],
            "last_eval": self._last_eval,
            "last_time": self._last_time,
            "fired": self.fired,
        }

    def load_state_dict(self, state: dict) -> None:
        self._window.clear()
        for v in state.get("window", []):
            self._window.push(float(v))
        self._pending = [(float(v), float(t)) for v, t in state.get("pending", [])]
        last_eval = state.get("last_eval")
        self._last_eval = float(last_eval) if last_eval is not None else None
        self._last_time = float(state.get("last_time", 0.0))
        self.fired = int(state.get("fired", 0))
        self.bucket = None  # last_eval moved: any parking is void
        self._retrack()
