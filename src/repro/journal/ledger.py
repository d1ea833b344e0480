"""The two ledgers recovery reads back from the WAL.

**Idempotent actuation.**  Actuation writes ``op-issued`` *before*
applying a plan op and ``op-completed`` after it took effect, both keyed
by the op's idempotency key (``plan_id:index:op:task``).  On resume the
ledger classifies each op of an in-flight plan:

``completed``  the effect is durable — skip, never double-apply;
``issued``     the crash fell inside the issue/apply window — probe the
               launcher for the effect before deciding;
``unseen``     the op never started — apply normally.

**Campaign runs.**  :class:`RunLedger`; see ``docs/crash-recovery.md``
§Campaigns.
"""

from __future__ import annotations

import os
from typing import Any

from repro.journal.journal import Journal
from repro.journal.resume import JournalState, read_journal
from repro.journal.spec import JournalSpec
from repro.journal.wal import list_segment_indices


class AppliedOpsLedger:
    """What the WAL proves about each plan op's actuation progress."""

    def __init__(self) -> None:
        self.issued: dict[str, dict] = {}
        self.completed: set[str] = set()

    @classmethod
    def from_records(cls, records: list[dict]) -> "AppliedOpsLedger":
        ledger = cls()
        for rec in records:
            kind = rec.get("kind")
            if kind == "op-issued":
                ledger.issued[rec["op_key"]] = rec
            elif kind == "op-completed":
                ledger.completed.add(rec["op_key"])
        return ledger

    def status(self, op_key: str) -> str:
        if op_key in self.completed:
            return "completed"
        if op_key in self.issued:
            return "issued"
        return "unseen"

    def issued_record(self, op_key: str) -> dict | None:
        return self.issued.get(op_key)


class ResumableJournal:
    """A journal directory as a resuming writer sees it: read once, then claimed.

    Construction reads what a predecessor left (:attr:`records` and
    :attr:`barrier_state`; empty for a fresh directory) — the one place
    outside this package's internals that asks whether a directory
    already holds segments.  :meth:`open`
    claims it — ``Journal.reopen`` with the state already read, else
    ``Journal.open``, whose ``meta`` record carries *meta* — and releases
    what was read.  Without an enabled *spec* nothing is read or written.
    """

    def __init__(self, spec: JournalSpec | None, **meta: Any) -> None:
        self.spec = spec if spec is not None and spec.enabled else None
        self._meta = meta
        self._state = self._read()
        self.journal: Journal | None = None

    @property
    def records(self) -> list[dict]:
        return self._state.records if self._state is not None else []

    @property
    def barrier_state(self) -> dict | None:
        """The last barrier's state as the predecessor left it, if any."""
        return self._state.barrier_state if self._state is not None else None

    def _read(self) -> JournalState | None:
        directory = self.spec.dir if self.spec is not None else ""
        if os.path.isdir(directory) and list_segment_indices(directory):
            return read_journal(directory)
        return None

    def open(self) -> Journal | None:
        """Claim the directory for writing (idempotent)."""
        if self.journal is None and self.spec is not None:
            # The state read at construction serves one reopen; this
            # writer's appends outdate it, so a later open() reads again.
            state, self._state = self._state or self._read(), None
            if state is not None:
                self.journal = Journal.reopen(self.spec.dir, spec=self.spec, state=state)
            else:
                self.journal = Journal.open(self.spec, **self._meta)
        return self.journal

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
            self.journal = None


class RunLedger(ResumableJournal):
    """Which campaign runs (noun ``run``) or tenant cells (``cell``) are settled.

    Each unit of work is bracketed by ``<noun>-started`` and
    ``<noun>-completed`` (carrying its JSON result) or ``<noun>-poisoned``,
    keyed by ``<noun>_id``.  Pointed at a crashed predecessor's directory,
    :meth:`replay` answers from those records so settled work is never
    re-executed, and claiming the directory bumps the fencing epoch, so a
    crashed-but-still-writing predecessor errors out on its next sync.
    """

    def __init__(self, noun: str, spec: JournalSpec | None, **meta: Any) -> None:
        super().__init__(spec, **meta)
        self.noun = noun
        self.completed: dict[str, Any] = {}
        self.poisoned: set[str] = set()
        completed, poisoned, key = f"{noun}-completed", f"{noun}-poisoned", f"{noun}_id"
        for rec in self.records:
            if rec["kind"] == completed:
                self.completed[rec[key]] = rec["result"]
            elif rec["kind"] == poisoned:
                self.poisoned.add(rec[key])

    def replay(self, ident: str) -> tuple[str, Any] | None:
        """``(status, result)`` a predecessor journaled for *ident*, if any."""
        if ident in self.completed:
            return "completed", self.completed[ident]
        if ident in self.poisoned:
            return "poisoned", None
        return None

    def _append(self, event: str, ident: str, **payload: Any) -> None:
        journal = self.open()
        if journal is not None:
            journal.append(f"{self.noun}-{event}", **{f"{self.noun}_id": ident}, **payload)
            if event in ("completed", "poisoned"):
                journal.sync()  # a settled unit is durable before the next starts

    def start(self, ident: str, params: dict) -> None:
        self._append("started", ident, params=params)

    def fail(self, ident: str, attempt: int, error: str) -> None:
        self._append("failed", ident, attempt=attempt, error=error)

    def complete(self, ident: str, result: Any) -> None:
        self._append("completed", ident, result=result)

    def poison(self, ident: str, failures: list) -> None:
        self._append("poisoned", ident, failures=failures)
