"""Read side of the journal: recovery state + equivalence fingerprints."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.errors import JournalError
from repro.journal.delta import apply_delta
from repro.journal.records import RECORD_KINDS
from repro.journal.snapshot import load_latest_snapshot
from repro.journal.wal import current_epoch, list_segment_indices, read_segment, segment_path


@dataclass
class JournalState:
    """Everything recovery needs from one journal directory."""

    directory: str
    epoch: int
    snapshot_state: dict | None = None
    records: list[dict] = field(default_factory=list)
    last_seq: int = 0
    next_segment: int = 0
    next_snapshot: int = 0
    journal_spec: dict | None = None
    #: Controller state at the last barrier: full record or snapshot + deltas.
    barrier_state: dict | None = None


def read_journal(directory: str) -> JournalState:
    """Load the latest snapshot plus the ordered WAL suffix after it.

    Stale-writer debris is discarded: duplicate sequence numbers keep the
    highest epoch, and the epoch must be non-decreasing along the log.
    """
    if not os.path.isdir(directory):
        raise JournalError(f"journal dir {directory!r} does not exist")
    framed = load_latest_snapshot(directory)
    snapshot_seq = framed["seq"] if framed else 0
    start_segment = framed["segment_after"] if framed else 0

    segments = list_segment_indices(directory)
    raw: list[dict] = []
    for idx in segments:
        if idx >= start_segment:
            raw.extend(read_segment(segment_path(directory, idx)))

    by_seq: dict[int, dict] = {}
    for rec in raw:
        seq = rec.get("seq")
        if not isinstance(seq, int) or seq <= snapshot_seq:
            continue
        keep = by_seq.get(seq)
        if keep is None or rec.get("e", 0) > keep.get("e", 0):
            by_seq[seq] = rec
    records: list[dict] = []
    max_epoch_seen = 0
    for seq in sorted(by_seq):
        rec = by_seq[seq]
        epoch = rec.get("e", 0)
        if epoch < max_epoch_seen:
            continue  # stale writer's unfenced tail
        max_epoch_seen = max(max_epoch_seen, epoch)
        if rec.get("kind") not in RECORD_KINDS:
            # Written by another version of this package (e.g. a fleet WAL's
            # ``fleet-barrier``): resuming around it would drop its state.
            raise JournalError(f"record seq {seq} has unknown kind {rec.get('kind')!r}")
        records.append(rec)

    next_segment = (segments[-1] + 1) if segments else start_segment
    journal_spec = barrier = None
    if framed is not None:
        journal_spec = framed["state"].get("journal_spec")
        barrier = framed["state"].get("barrier")
    for rec in records:
        if "journal_spec" in rec:
            journal_spec = rec["journal_spec"]
        if rec.get("kind") == "barrier":
            # A full barrier restarts the fold; a delta folds onto the one before.
            if "delta" in rec and barrier is None:
                raise JournalError(f"delta barrier seq {rec['seq']} has no barrier before it")
            barrier = apply_delta(barrier, rec["delta"]) if "delta" in rec else rec["state"]
    return JournalState(
        directory=directory,
        epoch=current_epoch(directory),
        snapshot_state=framed["state"] if framed else None,
        records=records,
        last_seq=records[-1]["seq"] if records else snapshot_seq,
        next_segment=next_segment,
        next_snapshot=(framed["index"] + 1) if framed else 0,
        journal_spec=dict(journal_spec) if journal_spec else None,
        barrier_state=barrier,
    )


# --------------------------------------------------------------------------- #
# equivalence fingerprints
# --------------------------------------------------------------------------- #
def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def scenario_fingerprint(result, *, exclude_categories: tuple[str, ...] = ("journal",)) -> str:
    """SHA-256 over everything observable about a :class:`ScenarioResult`.

    Two runs with equal fingerprints made bit-identical decisions: same
    makespan, same trace spans and points, same plans (including per-op
    execution times), same metric history, same per-task summary.  Trace
    categories in *exclude_categories* (crash/resume bookkeeping points)
    are ignored so a recovered run can match its uninterrupted reference.
    """
    spans = [
        [s.track, s.label, s.start, s.end, s.category, s.meta]
        for s in result.trace.spans
        if s.category not in exclude_categories
    ]
    points = [
        [p.time, p.label, p.category, p.meta]
        for p in result.trace.points
        if p.category not in exclude_categories
    ]
    payload = {
        "makespan": result.makespan,
        "spans": spans,
        "points": points,
        "plans": [p.to_dict() for p in result.plans],
        "metric_history": [u.to_dict() for u in result.metric_history],
        "summary": result.summary_rows() if result.launcher is not None else [],
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
