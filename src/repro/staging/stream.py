"""SST-like streaming channels for in-situ task coupling.

A :class:`StreamChannel` carries *steps* — batches of samples — from one
writer to any number of readers, through a bounded staging buffer.  The
paper couples simulation and analysis tasks through ADIOS2's Sustainable
Staging Transport and names buffer exhaustion as a failure mode (§4.5);
the three :class:`OverflowPolicy` values model the standard responses.

Readers keep independent cursors, can connect late (they start from the
oldest retained step), and can be reset when a task restarts — losing
"timestep information when the tasks reset" exactly as the paper notes
about Fig. 9.

A reader can also ask to be told about new steps (:meth:`StreamReader.watch`):
each publish adds the reader's integer token to a set its owner holds, so
a Monitor round polls only the streams that advanced.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, NamedTuple

from repro.errors import BufferOverflowError, ChannelClosedError
from repro.util.validation import check_positive


class OverflowPolicy(enum.Enum):
    """What a full staging buffer does to the next write."""

    DROP_OLDEST = "drop_oldest"  # overwrite oldest step (SST queue-limit behaviour)
    ERROR = "error"              # raise BufferOverflowError
    GROW = "grow"                # unbounded (testing convenience)


class StreamStep(NamedTuple):
    """One published step: index + payload + publish time (immutable)."""

    step: int
    data: Any
    time: float


class StreamChannel:
    """Single-writer, multi-reader bounded step stream."""

    def __init__(
        self,
        name: str,
        capacity: int = 16,
        policy: OverflowPolicy = OverflowPolicy.DROP_OLDEST,
    ) -> None:
        check_positive(capacity, "capacity")
        self.name = name
        self.capacity = int(capacity)
        self.policy = policy
        self._steps: list[StreamStep] = []
        self._first_retained = 0  # step index of _steps[0]
        self._next_step = 0
        self._closed = False
        # Readers that asked to be woken by a publish; the channel keeps
        # no other reference to its readers.
        self._watchers: list[StreamReader] = []
        self.dropped_steps = 0
        # Fault-injection hook (chaos engine): called per put(); returning
        # True loses the write in transit — the step never reaches the
        # staging buffer and keeps no index, readers just see fewer steps.
        self.drop_filter: Callable[[str, Any], bool] | None = None
        self.dropped_in_transit = 0
        # Passive put() observers (telemetry): called with (channel, step)
        # after every successful publish.  Distinct from drop_filter so the
        # chaos engine keeps sole ownership of its hook.
        self.observers: list[Callable[["StreamChannel", StreamStep], None]] = []

    # -- writer side -------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def next_step(self) -> int:
        """Index the next published step will get."""
        return self._next_step

    def put(self, data: Any, time: float) -> int:
        """Publish a step; returns its index."""
        if self._closed:
            raise ChannelClosedError(f"write on closed channel {self.name!r}")
        if self.drop_filter is not None and self.drop_filter(self.name, data):
            self.dropped_in_transit += 1
            return self._next_step
        steps = self._steps
        if len(steps) >= self.capacity:
            if self.policy is OverflowPolicy.ERROR:
                raise BufferOverflowError(
                    f"channel {self.name!r} buffer full ({self.capacity} steps)"
                )
            if self.policy is OverflowPolicy.DROP_OLDEST:
                del steps[0]
                self._first_retained += 1
                self.dropped_steps += 1
            # GROW: fall through, keep everything
        idx = self._next_step
        record = StreamStep(idx, data, time)
        steps.append(record)
        self._next_step = idx + 1
        for reader in self._watchers:
            reader._wake.add(reader._token)
        for observer in self.observers:
            observer(self, record)
        return idx

    def close(self) -> None:
        """End of stream; readers can drain retained steps, then see EOS."""
        self._closed = True

    def reopen(self) -> None:
        """Writer restarted (task RESTART): stream continues, steps keep numbering."""
        self._closed = False

    # -- reader side ---------------------------------------------------------------
    def open_reader(self, name: str = "reader") -> "StreamReader":
        return StreamReader(self, name)

    def _retained_range(self) -> tuple[int, int]:
        """Half-open step-index range currently in the buffer."""
        return self._first_retained, self._next_step

    def _get(self, step: int) -> StreamStep | None:
        lo, hi = self._retained_range()
        if step < lo or step >= hi:
            return None
        return self._steps[step - lo]


class StreamReader:
    """A cursor over a :class:`StreamChannel`."""

    def __init__(self, channel: StreamChannel, name: str) -> None:
        self.channel = channel
        self.name = name
        lo, _hi = channel._retained_range()
        self._cursor = lo
        self.missed_steps = 0
        self._wake: set[int] | None = None
        self._token = 0

    @property
    def cursor(self) -> int:
        """Index of the next step this reader will consume."""
        return self._cursor

    def watch(self, wake: set[int], token: int) -> None:
        """Have every later publish on the channel add *token* to *wake*."""
        self._wake = wake
        self._token = token
        if self not in self.channel._watchers:
            self.channel._watchers.append(self)

    def unwatch(self) -> None:
        """Stop being woken; the channel drops its reference to this reader."""
        if self in self.channel._watchers:
            self.channel._watchers.remove(self)
        self._wake = None

    def try_next(self) -> StreamStep | None:
        """Return the next retained step, or None if none is available.

        If the writer outran this reader and steps were evicted, the cursor
        jumps forward and ``missed_steps`` records the loss.
        """
        lo, hi = self.channel._retained_range()
        if self._cursor < lo:
            self.missed_steps += lo - self._cursor
            self._cursor = lo
        if self._cursor >= hi:
            return None
        record = self.channel._get(self._cursor)
        assert record is not None
        self._cursor += 1
        return record

    def drain(self) -> list[StreamStep]:
        """Consume every currently-available step."""
        out = []
        while True:
            record = self.try_next()
            if record is None:
                return out
            out.append(record)

    def at_eos(self) -> bool:
        """True when the channel is closed and this reader has drained it."""
        _lo, hi = self.channel._retained_range()
        return self.channel.closed and self._cursor >= hi

    def seek_latest(self) -> None:
        """Skip everything already staged; only strictly new steps follow.

        Used on (re)connect by monitor sensors and restarted consumers —
        old data must not be re-observed ("losing timestep information
        when the tasks reset").
        """
        _lo, hi = self.channel._retained_range()
        self._cursor = hi
