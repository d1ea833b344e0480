"""The journal facade: sequenced WAL appends + periodic snapshots.

One :class:`Journal` instance is one *writer epoch* over a journal
directory.  ``Journal.open`` starts a fresh journal; ``Journal.reopen``
claims an existing one for recovery (bumping the fencing epoch so any
surviving stale writer errors out on its next sync).  All appends get a
monotonic sequence number that survives segment rotation and reopen.

Wall-clock cost flows into the telemetry registry when one is supplied:
``journal.append.latency`` (seconds per append), ``journal.fsync.count``,
and ``journal.snapshot.bytes``.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import asdict

from repro.errors import JournalError
from repro.journal.delta import SignedState, UnitCache
from repro.journal.records import make_record
from repro.journal.resume import read_journal
from repro.journal.snapshot import write_snapshot
from repro.journal.spec import JournalSpec
from repro.journal.wal import WalWriter, claim_epoch, list_segment_indices

# Snapshot sizes are bytes, not seconds: log-spaced bounds 256 B – 256 MB.
SNAPSHOT_BYTE_BUCKETS: tuple[float, ...] = tuple(256.0 * 4.0**e for e in range(11))


class Journal:
    """Writer-side handle on a journal directory (one fencing epoch)."""

    def __init__(
        self,
        spec: JournalSpec,
        *,
        metrics=None,
        _segment_index: int = 0,
        _start_seq: int = 0,
        _snapshot_index: int = 0,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.metrics = metrics
        self.epoch = claim_epoch(spec.dir)
        self._writer = WalWriter(
            spec.dir,
            epoch=self.epoch,
            segment_index=_segment_index,
            fsync=spec.fsync,
            batch_every=spec.batch_every,
        )
        self._seq = _start_seq
        self._snapshot_index = _snapshot_index
        self._fsyncs_seen = 0
        self._closed = False
        # The last barrier this epoch wrote, as the next delta's base: the
        # signatures of a plain state, or the unit cache it was taken from.
        self._base: SignedState | UnitCache | None = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def open(cls, spec: JournalSpec, metrics=None, **meta) -> "Journal":
        """Start a fresh journal; the directory must hold no WAL segments.

        Its first record is ``meta``: the caller's identity fields *meta*
        plus the spec, which ``reopen`` reuses.
        """
        os.makedirs(spec.dir, exist_ok=True)
        if list_segment_indices(spec.dir):
            raise JournalError(
                f"journal dir {spec.dir!r} already holds WAL segments; "
                "use Journal.reopen() to recover it"
            )
        journal = cls(spec, metrics=metrics)
        journal.append("meta", journal_spec=asdict(spec), **meta)
        return journal

    @classmethod
    def reopen(
        cls, directory: str, spec: JournalSpec | None = None, metrics=None, state=None
    ) -> "Journal":
        """Claim an existing journal for recovery (next epoch, fresh segment).

        Appends resume in a *new* segment — never after a possibly-torn
        tail — and the sequence counter continues past the last durable
        record.  The persisted spec (from the latest snapshot or the
        ``meta`` / ``resume`` record) is reused unless *spec* overrides it; *state*
        is the directory's ``JournalState`` when the caller already read it.
        """
        js = state if state is not None else read_journal(directory)
        if spec is None:
            persisted = dict(js.journal_spec or {})
            persisted.pop("dir", None)
            spec = JournalSpec(dir=directory, **persisted)
        journal = cls(
            spec,
            metrics=metrics,
            _segment_index=js.next_segment,
            _start_seq=js.last_seq,
            _snapshot_index=js.next_snapshot,
        )
        journal.append("resume", journal_spec=asdict(spec))
        return journal

    # -- writing -------------------------------------------------------------
    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq

    def append(self, kind: str, **payload) -> int:
        """Append one record; returns its sequence number."""
        if self._closed:
            raise JournalError("append on closed journal")
        t0 = _time.perf_counter()  # lint: ignore[DY501] -- telemetry latency shim
        rec = make_record(self._seq + 1, self.epoch, kind, payload)
        self._writer.append(rec)
        self._seq += 1
        if self.metrics is not None:
            self.metrics.histogram("journal.append.latency").observe(
                _time.perf_counter() - t0  # lint: ignore[DY501]
            )
            self._count_fsyncs()
        return self._seq

    def _count_fsyncs(self) -> None:
        """Add the writer's fsyncs since the last call to ``journal.fsync.count``."""
        new_syncs = self._writer.fsync_count - self._fsyncs_seen
        if new_syncs:
            self.metrics.counter("journal.fsync.count").inc(new_syncs)
            self._fsyncs_seen = self._writer.fsync_count

    def barrier(self, t: float, state: dict | UnitCache) -> int:
        """Journal one control-loop barrier at time *t*: the state in full
        for the first barrier of a writer epoch, afterwards only its delta
        against the barrier before it.  *state* is a plain dict, diffed by
        signature (``SignedState``), or a :class:`UnitCache` brought up to
        date, whose delta is the units that moved since the last barrier
        (``UnitCache.take_moved``)."""
        units = state if isinstance(state, UnitCache) else None
        base = self._base
        if units is not None and base is units:
            delta = units.take_moved()
        elif units is None and isinstance(base, SignedState):
            delta = base.delta(state)
        else:
            if units is not None:
                units.take_moved()  # all of them are in the full state
                state = units.state()
            seq = self.append("barrier", t=t, state=state)
            self._base = units if units is not None else SignedState(state)
            return seq
        try:
            return self.append("barrier", t=t, delta=delta)
        except BaseException:
            self._base = None  # the base moved on and the WAL did not
            raise

    def snapshot(self, state: dict) -> int:
        """Compact: seal the current segment and persist *state*.

        Returns the snapshot index.  The snapshot covers every record up
        to the current sequence number; older segments and snapshots are
        deleted once it is durable.  That deletes the last barrier's
        record, the base of the next delta: *state* carries it as
        ``barrier``, or the next barrier is written in full.
        """
        if self._closed:
            raise JournalError("snapshot on closed journal")
        if "barrier" not in state:
            self._base = None
        index = self._snapshot_index
        self._snapshot_index += 1
        segment_after = self._writer.rotate()
        full = {**state, "journal_spec": asdict(self.spec)}
        size = write_snapshot(self.spec.dir, index, full, segment_after, self._seq)
        if self.metrics is not None:
            self.metrics.histogram(
                "journal.snapshot.bytes", buckets=SNAPSHOT_BYTE_BUCKETS
            ).observe(size)
            self._count_fsyncs()
        return index

    def sync(self) -> None:
        """Force buffered records to disk (fence-checked)."""
        self._writer.sync()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def fsync_count(self) -> int:
        return self._writer.fsync_count
