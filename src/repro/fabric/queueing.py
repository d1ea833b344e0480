"""Bounded queues with deterministic shed policies.

:class:`BoundedShedQueue` backs the threaded driver's Decision →
Arbitration hand-off: a slow consumer can no longer grow the suggestion
backlog without bound.  When full, the *oldest* item is shed — newer
suggestions supersede older ones for the same policies, so freshness
beats completeness here — and the shed count is kept for telemetry.
``put`` hands the shed item back, so its owner can end it.
"""

from __future__ import annotations

import queue as _queue
import threading
from collections import deque
from typing import Any

from repro.errors import DyflowError


class BoundedShedQueue:
    """Thread-safe FIFO that sheds its oldest item instead of blocking.

    ``capacity=0`` means unbounded (the pre-hardening behavior).
    ``get`` raises :class:`queue.Empty` on timeout, matching the
    ``queue.Queue`` call sites it replaces.
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise DyflowError(f"queue capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._cond = threading.Condition()
        self.shed = 0

    def put(self, item: Any) -> Any:
        """Append *item*; returns the item shed to make room, if one was."""
        shed = None
        with self._cond:
            if self.capacity and len(self._items) >= self.capacity:
                shed = self._items.popleft()
                self.shed += 1
            self._items.append(item)
            self._cond.notify()
        return shed

    def get(self, timeout: float | None = None) -> Any:
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if not self._items:
                raise _queue.Empty
            return self._items.popleft()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)
