"""Configuration for the write-ahead journal."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import JournalError
from repro.util.xmlfield import attr, check_fields

FSYNC_MODES = ("off", "always", "batch")


@dataclass(frozen=True)
class JournalSpec:
    """How the control loop journals its state; no spec, no journal.

    ``fsync`` trades durability for throughput: ``always`` syncs after
    every record, ``batch`` after every ``batch_every`` records (and on
    snapshot/close), ``off`` leaves flushing to the OS.  ``snapshot_every``
    is measured in control-loop barriers (ticks).
    """

    dir: str = attr("journal", nonempty=True)
    fsync: str = attr("batch", choices=FSYNC_MODES)
    batch_every: int = attr(64, ge=1)
    snapshot_every: int = attr(20, ge=1)

    def validate(self) -> None:
        check_fields(self, JournalError, "journal")
