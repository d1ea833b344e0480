"""Live campaign status streaming: a durable, seekable JSONL event log.

:class:`WatchStream` is the transport behind
:meth:`~repro.campaign.service.CampaignService.watch`: every admission,
lease decision, cell attempt, breaker trip, and SLO transition lands
here as one typed JSON line.  Three properties make the stream safe to
consume while the campaign is being crash/resumed:

* **Durable** — events append to a file and survive the writer; a torn
  trailing line (crash mid-write) is detected and discarded on reopen.
* **Idempotent** — every event carries a content-derived ``key``; a
  resumed supervisor re-submitting the same cells re-emits the same
  keys, which dedup against the committed prefix, so the stream stays
  byte-identical to an uncrashed run.
* **Seekable** — each line carries a monotonically increasing ``seq``;
  :meth:`read` returns everything at or after a cursor, so a consumer
  can disconnect and catch up.

Lines render via ``json.dumps(..., sort_keys=True)`` with fixed
separators, so same-event sequences are byte-identical across runs.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any

from repro.errors import ObservabilityError

#: The typed event vocabulary; ``emit`` rejects anything else so
#: consumers can exhaustively match on ``kind``.
EVENT_KINDS = (
    "campaign-open",
    "admit",
    "reject",
    "lease-grant",
    "lease-deny",
    "cell-start",
    "cell-retry",
    "cell-complete",
    "cell-poison",
    "breaker-trip",
    "alert",
    "slo-transition",
)


def _render(event: dict[str, Any]) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class WatchStream:
    """Append-only typed event stream over one campaign.

    Pass ``path=None`` for a purely in-memory stream (tests, disabled
    journaling); otherwise the file at *path* is the durable record and
    reopening it resumes ``seq`` and the dedup index from the committed
    prefix.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._events: list[dict[str, Any]] = []
        self._seen: set[str] = set()
        self._fh: io.TextIOWrapper | None = None
        if path is not None:
            self._load(path)
            self._fh = open(path, "a", encoding="utf-8")

    def _load(self, path: str, repair: bool = True) -> None:
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            raw = fh.read()
        # Everything up to the last newline is committed; a torn tail from
        # a crash mid-append is dropped and (when reopening for append) cut
        # off in place, so the committed prefix is never rewritten.
        committed = raw[: raw.rfind(b"\n") + 1]
        if repair and len(committed) < len(raw):
            os.truncate(path, len(committed))
        for line in committed.decode("utf-8").splitlines():
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(f"corrupt watch stream {path}: {exc}") from None
            self._events.append(event)
            self._seen.add(event["key"])

    # -- writing -------------------------------------------------------

    def emit(self, kind: str, key: str, time: float, **payload: Any) -> bool:
        """Append one event; returns False if *key* was already emitted.

        *key* must be content-derived (cell id + attempt, trip ordinal,
        alert source + ordinal, ...) so a crash/resume that replays the
        same logical event deduplicates instead of double-appending.
        """
        if kind not in EVENT_KINDS:
            raise ObservabilityError(f"unknown watch event kind {kind!r}")
        if key in self._seen:
            return False
        event: dict[str, Any] = {"seq": len(self._events), "kind": kind,
                                 "key": key, "time": time}
        for name, value in payload.items():
            if name in event:
                raise ObservabilityError(f"watch payload field {name!r} is reserved")
            event[name] = value
        self._events.append(event)
        self._seen.add(key)
        if self._fh is not None:
            self._fh.write(_render(event) + "\n")
            self._fh.flush()
        return True

    def seen(self, key: str) -> bool:
        """True if *key* was already emitted (committed prefix included)."""
        return key in self._seen

    def sync(self) -> None:
        """fsync the stream file (called at campaign WAL barriers)."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -------------------------------------------------------

    @property
    def seq(self) -> int:
        """The next sequence number to be assigned."""
        return len(self._events)

    def read(self, since: int = 0) -> list[dict[str, Any]]:
        """All events with ``seq >= since``, in order."""
        if since < 0:
            raise ObservabilityError(f"watch cursor must be >= 0, got {since}")
        return [dict(e) for e in self._events[since:]]

    def render(self, since: int = 0) -> str:
        """The stream (from *since*) as canonical JSONL text."""
        return "".join(_render(e) + "\n" for e in self._events[since:])


def read_watch_stream(path: str) -> list[dict[str, Any]]:
    """Parse a committed watch-stream file without opening it for append."""
    stream = WatchStream(None)
    stream._load(path, repair=False)
    return stream.read()
