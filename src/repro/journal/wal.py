"""Append-only JSONL write-ahead log with CRC-guarded records.

On-disk layout of a journal directory::

    EPOCH                 current writer epoch (fencing token, ASCII int)
    wal-000000.jsonl      segment 0 (rotated at every snapshot)
    wal-000001.jsonl      ...
    snapshot-000000.json  the newest snapshot (see ``snapshot.py``)

Each line is ``<crc32 hex8> <compact json>``; the CRC covers the JSON
bytes.  A torn final line (partial write at crash) is tolerated and
dropped on read; a corrupt line *followed by* valid data is reported as
corruption, since an append-only log can only tear at the tail.

Fencing: a writer claims the journal by atomically bumping ``EPOCH``.
Before data reaches disk (fsync / rotate / close) the writer re-reads
``EPOCH``; if another writer has claimed a higher epoch the stale writer
gets :class:`~repro.errors.StaleWriterError` instead of silently
interleaving records.
"""

from __future__ import annotations

import json
import os
import zlib

from repro.errors import JournalError, StaleWriterError

EPOCH_FILE = "EPOCH"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"


def segment_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}")


def file_index(name: str, prefix: str, suffix: str) -> int | None:
    """The index in a ``<prefix>NNNNNN<suffix>`` file name, or None."""
    if name.startswith(prefix) and name.endswith(suffix):
        try:
            return int(name[len(prefix) : -len(suffix)])
        except ValueError:
            return None
    return None


def list_segment_indices(directory: str) -> list[int]:
    """Sorted indices of the WAL segments present in *directory*."""
    indices = (file_index(n, SEGMENT_PREFIX, SEGMENT_SUFFIX) for n in os.listdir(directory))
    return sorted(i for i in indices if i is not None)


def current_epoch(directory: str) -> int:
    """The epoch on disk; 0 when the journal has never been claimed."""
    path = os.path.join(directory, EPOCH_FILE)
    try:
        with open(path, encoding="utf-8") as fh:
            return int(fh.read().strip() or "0")
    except FileNotFoundError:
        return 0


def claim_epoch(directory: str) -> int:
    """Atomically bump the epoch and return the new (claimed) value."""
    os.makedirs(directory, exist_ok=True)
    epoch = current_epoch(directory) + 1
    path = os.path.join(directory, EPOCH_FILE)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{epoch}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return epoch


def encode_record(record: dict) -> str:
    body = json.dumps(record, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n"


def _decode_line(line: str) -> dict | None:
    """Parse one WAL line; None when the line fails its CRC or framing."""
    if " " not in line:
        return None
    crc_hex, body = line.split(" ", 1)
    if len(crc_hex) != 8:
        return None
    try:
        expect = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expect:
        return None
    try:
        rec = json.loads(body)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def read_segment(path: str) -> list[dict]:
    """All valid records of one segment, tolerating a torn final line."""
    records: list[dict] = []
    bad_at: int | None = None
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        rec = _decode_line(line)
        if rec is None:
            bad_at = i
            break
        records.append(rec)
    if bad_at is not None:
        # Only the tail may legitimately tear in an append-only log.
        if any(rest.strip() for rest in lines[bad_at + 1 :]):
            raise JournalError(
                f"corrupt WAL record mid-segment at {path}:{bad_at + 1}"
            )
    return records


class WalWriter:
    """Appends CRC-framed records to the current segment of a journal."""

    def __init__(
        self,
        directory: str,
        epoch: int,
        segment_index: int = 0,
        fsync: str = "batch",
        batch_every: int = 64,
    ) -> None:
        self.directory = directory
        self.epoch = epoch
        self.segment_index = segment_index
        self.fsync_mode = fsync
        self.batch_every = max(1, int(batch_every))
        self.fsync_count = 0
        self.appended = 0
        self._since_sync = 0
        self._closed = False
        self._fh = open(segment_path(directory, segment_index), "a", encoding="utf-8")

    # -- fencing ------------------------------------------------------------
    def _check_fence(self) -> None:
        on_disk = current_epoch(self.directory)
        if on_disk > self.epoch:
            raise StaleWriterError(
                f"journal {self.directory!r} claimed by epoch {on_disk} "
                f"(this writer is epoch {self.epoch})"
            )

    # -- writing ------------------------------------------------------------
    def append(self, record: dict) -> int:
        """Write one record; returns the encoded size in bytes."""
        if self._closed:
            raise JournalError("append on closed WAL writer")
        line = encode_record(record)
        self._fh.write(line)
        self.appended += 1
        self._since_sync += 1
        if self.fsync_mode == "always":
            self.sync()
        elif self.fsync_mode == "batch" and self._since_sync >= self.batch_every:
            self.sync()
        return len(line)

    def sync(self) -> None:
        """Fence-check, then force the buffered records to disk."""
        self._check_fence()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsync_count += 1
        self._since_sync = 0

    def rotate(self) -> int:
        """Seal the current segment and start the next one."""
        self.sync()
        self._fh.close()
        self.segment_index += 1
        self._fh = open(
            segment_path(self.directory, self.segment_index), "a", encoding="utf-8"
        )
        return self.segment_index

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sync()
        finally:
            self._fh.close()
