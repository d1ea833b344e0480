"""Snapshot files: periodic compaction points for the WAL.

A snapshot is the runtime state at one barrier, written as a single
CRC-framed JSON line whose frame also carries ``index``,
``segment_after`` (the first WAL segment that postdates it) and ``seq``
(the last record it covers).  It is written through a temp file, an
fsync and a rename, so a ``snapshot-NNNNNN.json`` is always complete and
the highest-index one is the checkpoint: recovery loads it and replays
only the segments from ``segment_after`` on.  Writing one deletes the
older segments and snapshots behind it (compaction).
"""

from __future__ import annotations

import os

from repro.errors import JournalError
from repro.journal.wal import (
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
    _decode_line,
    encode_record,
    file_index,
)

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".json"


def snapshot_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"{SNAPSHOT_PREFIX}{index:06d}{SNAPSHOT_SUFFIX}")


def write_snapshot(directory: str, index: int, state: dict, segment_after: int, seq: int) -> int:
    """Persist snapshot *index*, then compact behind it; returns its size in bytes.

    *segment_after* is the WAL segment whose records postdate this
    snapshot; *seq* is the last record sequence number it covers.
    """
    line = encode_record(
        {"index": index, "segment_after": segment_after, "seq": seq, "state": state}
    )
    path = snapshot_path(directory, index)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    for name in os.listdir(directory):
        segment = file_index(name, SEGMENT_PREFIX, SEGMENT_SUFFIX)
        snapshot = file_index(name, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)
        if (segment is not None and segment < segment_after) or (
            snapshot is not None and snapshot < index
        ):
            os.unlink(os.path.join(directory, name))
    return len(line)


def load_latest_snapshot(directory: str) -> dict | None:
    """The newest snapshot's framed payload, or None when there is none.

    A damaged newest snapshot raises rather than falling back to an older
    one: the segments that older one needs may already be compacted.
    """
    indices = (file_index(n, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX) for n in os.listdir(directory))
    newest = max((i for i in indices if i is not None), default=None)
    if newest is None:
        return None
    path = snapshot_path(directory, newest)
    # A flipped high bit is not UTF-8: decode it to U+FFFD, which fails the CRC.
    with open(path, encoding="utf-8", errors="replace") as fh:
        framed = _decode_line(fh.readline().strip())
    if framed is None:
        raise JournalError(f"corrupt snapshot file {path}")
    return framed
