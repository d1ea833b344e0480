"""Decision stage: route metric updates to policies and collect responses.

"This module screens incoming sensor message(s) ... and maps them to the
policies.  Each policy uses these updates to trigger evaluation at
defined frequency intervals ... Policy responses (if any) are collected
and sent as a single JSON message to the Arbitration module" (paper §3).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable

from repro.core.actions import ActionType, Outcome, Reason, SuggestedAction, tally
from repro.core.events import MetricUpdate
from repro.core.policy import PolicyApplication, PolicyRuntime, PolicySpec
from repro.errors import PolicyError
from repro.telemetry.tracer import NULL_TRACER, Tracer

# Actions that survive degraded mode: failure recovery must proceed even
# on stale data, but performance tuning (resizing, variant switches,
# reconfiguration) on old pace numbers just thrashes the allocation.
ESSENTIAL_ACTIONS = frozenset({ActionType.STOP, ActionType.START, ActionType.RESTART})


class DecisionStage:
    """Holds policy runtimes, ingests updates, emits suggestion batches."""

    def __init__(self) -> None:
        self._specs: dict[str, PolicySpec] = {}
        self._runtimes: list[PolicyRuntime] = []
        # Creation indices of the runtimes with something to assess that
        # are not parked; each runtime keeps its own membership current
        # (PolicyRuntime.track), so tick() never visits an idle policy.
        self._answerable: set[int] = set()
        # frequency -> heap of (bucket, index): runtimes that can answer
        # but are not due before frequency bucket ``bucket``.  An entry
        # whose runtime's ``bucket`` differs is stale.  Derived state,
        # never journaled.
        self._parked: dict[float, list[tuple[int, int]]] = {}
        # Routing index: (sensor, granularity, workflow) -> (by-task map,
        # wildcard list).  Rebuilt lazily after apply_policy; turns
        # ingest from O(updates x runtimes) into O(updates) — the
        # dominant cost at 10k-task scale.
        self._route: dict[tuple, tuple[dict, list]] | None = None
        self.updates_seen = 0
        self.updates_matched = 0
        # Staleness-aware degraded mode (set by the fabric's
        # DegradedModeController through the driver).
        self.degraded = False
        #: Suggestions the last :meth:`gate` held back, one outcome each.
        self.outcomes: list[Outcome] = []
        #: Per-reason totals of every :meth:`gate` call.
        self.outcome_counts: dict[str, int] = {}
        self.tracer: Tracer = NULL_TRACER

    # -- configuration ------------------------------------------------------------
    def add_policy(self, spec: PolicySpec) -> None:
        if spec.policy_id in self._specs:
            raise PolicyError(f"duplicate policy id {spec.policy_id!r}")
        self._specs[spec.policy_id] = spec

    def apply_policy(self, application: PolicyApplication) -> PolicyRuntime:
        spec = self._specs.get(application.policy_id)
        if spec is None:
            raise PolicyError(f"apply-policy references unknown policy {application.policy_id!r}")
        runtime = PolicyRuntime(spec, application)
        runtime.track(len(self._runtimes), self._answerable)
        self._runtimes.append(runtime)
        self._route = None
        return runtime

    @property
    def policies(self) -> list[PolicySpec]:
        return list(self._specs.values())

    @property
    def runtimes(self) -> list[PolicyRuntime]:
        return list(self._runtimes)

    # -- data path ------------------------------------------------------------------
    def _build_route(self) -> dict[tuple, tuple[dict, list]]:
        """Index runtimes by the exact fields :meth:`PolicyRuntime.matches`
        tests: (sensor, granularity, workflow) keys a bucket; inside it,
        task-granularity runtimes with an ``assess-task`` go into a
        per-task map and everything else (workflow granularity, or no
        assess-task) matches any update in the bucket."""
        route: dict[tuple, tuple[dict, list]] = {}
        for rt in self._runtimes:
            spec, app = rt.spec, rt.application
            key = (spec.sensor_id, spec.granularity, app.workflow_id)
            bucket = route.get(key)
            if bucket is None:
                bucket = route[key] = ({}, [])
            by_task, wildcard = bucket
            if spec.granularity in ("task", "node-task") and app.assess_task:
                by_task.setdefault(app.assess_task, []).append(rt)
            else:
                wildcard.append(rt)
        self._route = route
        return route

    def ingest(self, updates: Iterable[MetricUpdate]) -> None:
        """Map incoming updates onto every matching policy runtime."""
        route = self._route
        if route is None:
            route = self._build_route()
        seen = matched = 0
        for u in updates:
            seen += 1
            bucket = route.get((u.sensor_id, u.granularity, u.workflow_id))
            if bucket is None:
                continue
            by_task, wildcard = bucket
            rts = by_task.get(u.task)
            if rts:
                for rt in rts:
                    rt.accept(u)
                matched += len(rts)
            if wildcard:
                for rt in wildcard:
                    rt.accept(u)
                matched += len(wildcard)
        self.updates_seen += seen
        self.updates_matched += matched

    def tick(self, now: float) -> list[SuggestedAction]:
        """Evaluate due policies; returns this round's suggestions."""
        tracer = self.tracer
        span = tracer.start_span("decision.tick", "decision") if tracer.enabled else None
        suggestions: list[SuggestedAction] = []
        runtimes, answerable = self._runtimes, self._answerable
        for freq, heap in self._parked.items():
            turned = math.floor(now / freq)  # PolicyRuntime.due's arithmetic
            if heap and heap[0][0] <= turned:
                self._release(heap, turned)
        for index in sorted(answerable):  # creation order, as suggestions must be
            rt = runtimes[index]
            suggestions.extend(rt.evaluate(now))
            if not rt.can_answer():
                answerable.discard(index)
                continue
            bucket = rt.next_bucket()
            if bucket is not None:  # not due again before that bucket turns
                rt.bucket = bucket
                heapq.heappush(self._parked.setdefault(rt.spec.frequency, []), (bucket, index))
                answerable.discard(index)
        if span is not None:
            tracer.end_span(span, suggestions=len(suggestions))
            if suggestions:
                tracer.metrics.counter("decision.suggestions").inc(len(suggestions))
                # Event-to-suggestion latency: from the triggering data's
                # timestamp to the tick that emitted the suggestion
                # (transport lag + the policy's frequency gate).
                hist = tracer.metrics.histogram("stage.decision.latency")
                for s in suggestions:
                    hist.observe(max(0.0, now - s.trigger_time))
        return suggestions

    def _release(self, heap: list[tuple[int, int]], turned: int) -> None:
        """Unpark the runtimes in *heap* whose bucket is ``<= turned``; those
        that can still answer are visited by this tick."""
        runtimes, answerable = self._runtimes, self._answerable
        while heap and heap[0][0] <= turned:
            bucket, index = heapq.heappop(heap)
            rt = runtimes[index]
            if rt.bucket != bucket:
                continue  # stale: the runtime reloaded its state since
            rt.bucket = None
            if rt.can_answer():
                answerable.add(index)

    def set_degraded(self, active: bool) -> None:
        """Toggle degraded mode (monitor data stale — see repro.fabric)."""
        self.degraded = bool(active)

    def gate(self, suggestions: list[SuggestedAction]) -> list[SuggestedAction]:
        """Apply degraded-mode gating to one tick's suggestion batch.

        Called by the live driver *after* :meth:`tick`, never during WAL
        replay: gating filters only the emitted batch and touches no
        policy-runtime state, so replayed ticks stay bit-identical
        regardless of the historical degraded flag.
        """
        self.outcomes = []
        if not self.degraded or not suggestions:
            return suggestions
        kept = []
        for s in suggestions:
            if s.action in ESSENTIAL_ACTIONS:
                kept.append(s)
                continue
            self.outcomes.append(Outcome(s.policy_id, s.action, s.target, Reason.GATED_DEGRADED))
            tally(self.outcome_counts, Reason.GATED_DEGRADED, self.tracer)
        return kept

    def on_task_restart(self, task: str) -> None:
        """Clear windowed history of policies assessing a restarted task.

        A restarted task runs at a new size: averaging its new pace with
        pre-restart values double-counts the old regime and re-triggers
        adjustments that were already applied.  Only windowed policies
        reset — instantaneous (window=1) policies keep their pending
        values so exact-match conditions are never silently dropped.
        (The paper's Fig. 9 shows the metric itself resetting across
        restarts.)
        """
        for rt in self._runtimes:
            if rt.application.assess_task == task and rt.spec.history_window > 1:
                rt.reset_history()

    # -- crash recovery ------------------------------------------------------------
    def state_dict(self) -> dict:
        """Runtime state keyed by creation index (configuration-stable)."""
        return {
            "updates_seen": self.updates_seen,
            "updates_matched": self.updates_matched,
            "degraded": self.degraded,
            "outcome_counts": dict(self.outcome_counts),
            "runtimes": [rt.state_dict() for rt in self._runtimes],
        }

    def load_state_dict(self, state: dict) -> None:
        runtimes = state.get("runtimes", [])
        if len(runtimes) != len(self._runtimes):
            from repro.errors import JournalError

            raise JournalError(
                f"{len(runtimes)} journaled policy runtimes for "
                f"{len(self._runtimes)} configured — configuration drift"
            )
        self.updates_seen = int(state["updates_seen"])
        self.updates_matched = int(state["updates_matched"])
        self.degraded = bool(state.get("degraded", False))
        self.outcome_counts = dict(state.get("outcome_counts", {}))
        self._parked = {}  # each runtime unparks as it loads
        for rt, rt_state in zip(self._runtimes, runtimes):
            rt.load_state_dict(rt_state)
