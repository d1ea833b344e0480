"""Continuous core profiling: a sampling profiler over the sim kernel.

Where :class:`~repro.profiler.instrument.TaskProfiler` models the
paper's TAU instrumentation *inside* application tasks, the
:class:`CoreProfiler` watches the orchestrator's own machinery: every
``sample_every`` runtime seconds it captures

* engine throughput — events executed since the last sample,
* queue shape — distinct heap slots and undrained pending events,
* codec efficiency — :func:`repro.util.jsonmsg.codec_stats` hit rate,
* arbitration memo efficiency — placement-feasibility memo hit rate,

into a bounded **flight recorder** (a ring of the most recent samples)
that :meth:`dump` writes as JSON when a run crashes or a campaign
quarantines a poison cell — the last seconds of kernel behaviour,
post-mortem, at O(ring) memory.

Cumulative counter sources are process-global (codec stats) or
engine-lifetime (``events_executed``), so every sample records *deltas*
against journaled baselines; after a crash/resume in a fresh process the
baselines re-anchor to the live counters instead of going negative.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import TelemetryError
from repro.util.jsonmsg import codec_stats

_EPS = 1e-9


@dataclass(frozen=True)
class ProfileSpec:
    """Core-profiler configuration.

    Attributes:
        enabled: master switch; disabled profiling costs one boolean
            check per tick.
        sample_every: sampling cadence in runtime seconds.
        ring: flight-recorder capacity in samples (oldest evicted).
        dump_path: where :meth:`CoreProfiler.dump` writes on crash /
            poison-quarantine; ``None`` leaves dumping to the caller.
    """

    enabled: bool = False
    sample_every: float = 5.0
    ring: int = 256
    dump_path: str | None = None

    def validate(self) -> None:
        if self.sample_every <= 0.0:
            raise TelemetryError(f"profile sample_every must be > 0, got {self.sample_every}")
        if self.ring < 1:
            raise TelemetryError(f"profile ring must be >= 1, got {self.ring}")


class CoreProfiler:
    """Cadenced sampler + flight recorder over the sim engine."""

    def __init__(self, spec: ProfileSpec | None = None) -> None:
        self.spec = spec or ProfileSpec()
        self.spec.validate()
        self._engine: Any = None
        self._arbitration: Any = None
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.spec.ring)
        self._next = 0.0
        self._last_now: float | None = None
        self.samples_taken = 0
        # Delta baselines for cumulative counter sources.
        self._base = {"events": 0, "codec_hits": 0, "codec_misses": 0,
                      "memo_hits": 0, "memo_misses": 0}

    def bind(self, engine: Any = None, arbitration: Any = None) -> None:
        """Attach the live engine / arbitration stage to sample from.

        Re-anchors the counter baselines to the current live values so
        the first sample after binding (including after a crash/resume
        into a fresh process) measures only new activity.
        """
        if engine is not None:
            self._engine = engine
        if arbitration is not None:
            self._arbitration = arbitration
        self._base = self._cumulative()

    def _cumulative(self) -> dict[str, int]:
        codec = codec_stats()
        out = {
            "events": self._engine.events_executed if self._engine is not None else 0,
            "codec_hits": codec["encode_hits"],
            "codec_misses": codec["encode_misses"],
            "memo_hits": 0,
            "memo_misses": 0,
        }
        if self._arbitration is not None:
            memo = self._arbitration.memo_stats()
            out["memo_hits"] = memo["hits"]
            out["memo_misses"] = memo["misses"]
        return out

    @property
    def enabled(self) -> bool:
        return self.spec.enabled

    def maybe_sample(self, now: float) -> dict[str, Any] | None:
        """Take a sample if one is due (MetricsSnapshotter cadence)."""
        if not self.spec.enabled or now + _EPS < self._next:
            return None
        sample = self.sample(now)
        while self._next <= now + _EPS:
            self._next += self.spec.sample_every
        return sample

    def sample(self, now: float) -> dict[str, Any]:
        """Capture one sample unconditionally and append it to the ring."""
        cur = self._cumulative()
        # A counter below its baseline means the source restarted (fresh
        # process after resume); re-anchor rather than report negatives.
        for key, value in cur.items():
            if value < self._base[key]:
                self._base[key] = value
        d_events = cur["events"] - self._base["events"]
        dt = None if self._last_now is None else now - self._last_now

        def rate(hits: int, misses: int) -> float | None:
            total = hits + misses
            return hits / total if total else None

        sample: dict[str, Any] = {
            "time": now,
            "events": d_events,
            "events_per_sec": (d_events / dt) if dt else None,
            "pending_slots": (
                self._engine.pending_slots() if self._engine is not None else 0
            ),
            "pending_events": (
                self._engine.pending_events() if self._engine is not None else 0
            ),
            "codec_hit_rate": rate(
                cur["codec_hits"] - self._base["codec_hits"],
                cur["codec_misses"] - self._base["codec_misses"],
            ),
            "memo_hit_rate": rate(
                cur["memo_hits"] - self._base["memo_hits"],
                cur["memo_misses"] - self._base["memo_misses"],
            ),
        }
        self._base = cur
        self._last_now = now
        self._ring.append(sample)
        self.samples_taken += 1
        return sample

    def record(self, now: float, kind: str, **payload: Any) -> None:
        """Append a non-sample marker (crash, poison, ...) to the ring."""
        self._ring.append({"time": now, "marker": kind, **payload})

    def ring(self) -> list[dict[str, Any]]:
        """The flight recorder's current contents, oldest first."""
        return list(self._ring)

    def dump(self, path: str | None = None, reason: str = "") -> str | None:
        """Write the flight recorder as JSON; returns the path written.

        Uses ``spec.dump_path`` when *path* is omitted; with neither set
        the dump is skipped (returns ``None``).
        """
        path = path or self.spec.dump_path
        if path is None:
            return None
        doc = {
            "schema": "dyflow-flight-recorder/1",
            "reason": reason,
            "samples_taken": self.samples_taken,
            "ring": self.ring(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path

    def suspend(self) -> None:
        """Controller crash: mark it in the ring and dump the recorder."""
        self.record(self._engine.now, "crash")
        self.dump(reason="crash")

    # -- persistence ---------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "next": self._next,
            "last_now": self._last_now,
            "samples_taken": self.samples_taken,
            "ring": self.ring(),
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self._next = float(state.get("next", 0.0))
        last_now = state.get("last_now")
        self._last_now = None if last_now is None else float(last_now)
        self.samples_taken = int(state.get("samples_taken", 0))
        self._ring.clear()
        self._ring.extend(state.get("ring", []))
        # Counter baselines are process-local; re-anchor on the next bind.
        self._base = self._cumulative()
