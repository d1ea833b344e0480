"""The journal record taxonomy.

Every WAL record is one JSON object with three framing fields — ``seq``
(monotonic across segments), ``kind`` (one of :data:`RECORD_KINDS`), and
``e`` (the writer's epoch) — plus kind-specific payload fields.  The
kinds split into three groups:

*replayed*   records whose side effects are re-executed on resume:
             ``obs`` (an envelope delivered to the MonitorServer),
             ``task-restart`` (sensor/window resets on task restart),
             ``barrier`` (a Decision tick; also carries the controller
             state — in full, or as a delta against the barrier before
             it — that is restored when it is the last before a crash;
             the campaign fleet plane writes the same record after every
             executed cell, its state being the fleet rollup, breaker,
             SLO evaluators and logical clock).

*restored*   records whose payload is state, applied wholesale:
             ``plan`` / ``plan-done`` (ActionPlan creation + execution
             patch).

*bookkeeping* ``meta`` (the journal's first record: run identity and
             the spec), ``resume``, ``crash``, ``op-issued`` /
             ``op-completed`` (the idempotent-actuation ledger),
             ``task-checkpoint`` (threaded-runtime step progress, used
             to restart live mini-apps without redoing work), and the
             campaign ledger's ``run-*`` / ``cell-*`` bracket, written
             only by :class:`~repro.journal.ledger.RunLedger`.

``snapshot-ref`` is read, and skipped, only in older journals.
"""

from __future__ import annotations

RECORD_KINDS = (
    "meta",          # journal/run identity: workflow id, journal spec
    "resume",        # a new epoch took over this journal
    "obs",           # monitor envelope delivered to the server
    "task-restart",  # task (re)started: sensor epochs / history windows reset
    "task-checkpoint",  # threaded runtime: a live task finished a step
    "barrier",       # one control-loop tick completed; controller state or its delta
    "plan",          # arbitration produced a plan (full serialized ActionPlan)
    "plan-done",     # actuation finished a plan (execution-time patch)
    "op-issued",     # actuation is about to apply one op (idempotency key)
    "op-completed",  # that op took effect
    "snapshot-ref",  # older journals: snapshot index + size
    "crash",         # controller stopped at this barrier (orchestrator_crash)
    "run-started",   # campaign: one run began
    "run-completed", # campaign: one run finished (carries its result summary)
    "run-failed",    # campaign: one run attempt raised (attempt counter)
    "run-poisoned",  # campaign: run quarantined after repeated failures
    "cell-started",  # tenant service: one cell began on its partition
    "cell-completed",  # tenant service: cell finished (carries its result)
    "cell-poisoned",   # tenant service: cell quarantined after max attempts
)

_KIND_SET = frozenset(RECORD_KINDS)


def make_record(seq: int, epoch: int, kind: str, payload: dict) -> dict:
    """Frame *payload* as a journal record; ``seq``/``kind``/``e`` win."""
    if kind not in _KIND_SET:
        raise ValueError(f"unknown journal record kind {kind!r}")
    rec = dict(payload)
    rec["seq"] = seq
    rec["kind"] = kind
    rec["e"] = epoch
    return rec
