"""Shared utilities: id generation, statistics, messaging, validation."""

from repro.util.ids import IdGenerator
from repro.util.stats import RunningStats, SlidingWindow
from repro.util.jsonmsg import DedupFilter, Envelope, OutOfOrderFilter, SequenceTracker
from repro.util.validation import (
    check_in,
    check_nonneg,
    check_positive,
    check_type,
)

__all__ = [
    "IdGenerator",
    "RunningStats",
    "SlidingWindow",
    "DedupFilter",
    "Envelope",
    "OutOfOrderFilter",
    "SequenceTracker",
    "check_in",
    "check_nonneg",
    "check_positive",
    "check_type",
]
