"""Node circuit breaker: repeated failures quarantine a node.

Arbitration "ensures the exclusion of problematic resources" (paper
§4.5) — but the seed only excluded nodes the scheduler already marked
DOWN.  The quarantine generalizes that: every task failure is *blamed*
on the nodes the instance ran on, and a node collecting enough blame
within a sliding window is excluded from placement for a cooldown even
while the scheduler still reports it UP.  This catches gray failures
(flaky NICs, thermal throttling) that kill tasks without killing nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.resilience.spec import QuarantineSpec


@dataclass(frozen=True)
class QuarantineEvent:
    """One quarantine state change, for post-run inspection."""

    time: float
    node_id: str
    kind: str  # "quarantined" or "released"
    blamed_failures: int = 0


class NodeQuarantine:
    """Sliding-window failure counter per node, with cooldown exclusion."""

    def __init__(self, spec: QuarantineSpec, clock: Callable[[], float]) -> None:
        spec.validate()
        self.spec = spec
        self.clock = clock
        self._failures: dict[str, list[float]] = {}
        self._until: dict[str, float] = {}
        self.history: list[QuarantineEvent] = []
        #: Moves whenever the journaled state may have (``state_dict``).
        self.revision = 0

    # -- recording ---------------------------------------------------------------
    def record_failure(self, node_id: str, now: float | None = None) -> bool:
        """Blame one failure on *node_id*; returns True if it newly trips.

        Failures older than the window are pruned; reaching the threshold
        (re)arms the cooldown, so a node that keeps failing stays out.
        """
        t = self.clock() if now is None else now
        self.revision += 1
        times = self._failures.setdefault(node_id, [])
        times.append(t)
        cutoff = t - self.spec.window
        self._failures[node_id] = times = [x for x in times if x >= cutoff]
        if len(times) < self.spec.failures:
            return False
        newly = not self.is_quarantined(node_id, t)
        self._until[node_id] = t + self.spec.cooldown
        if newly:
            self.history.append(QuarantineEvent(t, node_id, "quarantined", len(times)))
        return newly

    # -- queries -----------------------------------------------------------------
    def is_quarantined(self, node_id: str, now: float | None = None) -> bool:
        t = self.clock() if now is None else now
        until = self._until.get(node_id)
        if until is None:
            return False
        if t >= until:
            # Cooldown elapsed: release lazily, stamped at the cooldown's
            # end rather than at this query, and clear the blame record.
            self.revision += 1
            del self._until[node_id]
            self._failures.pop(node_id, None)
            self.history.append(QuarantineEvent(until, node_id, "released"))
            return False
        return True

    def active(self, now: float | None = None) -> set[str]:
        """Node ids currently excluded from placement."""
        t = self.clock() if now is None else now
        return {node_id for node_id in list(self._until) if self.is_quarantined(node_id, t)}

    def blamed(self, node_id: str) -> int:
        """Failures currently held against *node_id* (within the window)."""
        return len(self._failures.get(node_id, []))

    # -- crash recovery ------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "failures": {n: list(ts) for n, ts in sorted(self._failures.items())},
            "until": {n: t for n, t in sorted(self._until.items())},
            "history": [
                [e.time, e.node_id, e.kind, e.blamed_failures] for e in self.history
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.revision += 1
        self._failures = {
            n: [float(x) for x in ts] for n, ts in state.get("failures", {}).items()
        }
        self._until = {n: float(t) for n, t in state.get("until", {}).items()}
        self.history = [
            QuarantineEvent(float(t), n, kind, int(b))
            for t, n, kind, b in state.get("history", [])
        ]
