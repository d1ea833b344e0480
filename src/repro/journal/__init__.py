"""Write-ahead journal + snapshots: crash recovery for the control loop.

See ``docs/crash-recovery.md`` for the record taxonomy, fencing
semantics, and the resume walkthrough.
"""

from repro.journal.journal import Journal
from repro.journal.ledger import AppliedOpsLedger, ResumableJournal, RunLedger
from repro.journal.records import RECORD_KINDS, make_record
from repro.journal.resume import JournalState, read_journal, scenario_fingerprint
from repro.journal.spec import FSYNC_MODES, JournalSpec
from repro.journal.wal import WalWriter, claim_epoch, current_epoch, read_segment

__all__ = [
    "AppliedOpsLedger",
    "FSYNC_MODES",
    "Journal",
    "JournalSpec",
    "JournalState",
    "RECORD_KINDS",
    "ResumableJournal",
    "RunLedger",
    "WalWriter",
    "claim_epoch",
    "current_epoch",
    "make_record",
    "read_journal",
    "read_segment",
    "scenario_fingerprint",
]
