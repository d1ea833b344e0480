"""Central registry of data-plane endpoints.

Monitor clients locate their info sources by name — the XML gives a
``info-source="tau-iso.bp.*"`` string per monitored task.  The hub maps
those names to live endpoints: stream channels, variable stores, and the
shared filesystem.  Tasks (re)register their endpoints when they start,
and the Monitor stage re-resolves after restarts, mirroring the paper's
"setting (or resetting) connections to input streams ... when the
workflow tasks start (or restart)".
"""

from __future__ import annotations

from typing import Callable

from repro.errors import StagingError
from repro.staging.filesystem import SimFilesystem
from repro.staging.store import VariableStore
from repro.staging.stream import OverflowPolicy, StreamChannel, StreamStep
from repro.telemetry.tracer import NULL_TRACER, Tracer


class DataHub:
    """Names → channels/stores, plus the shared simulated filesystem."""

    def __init__(self, filesystem: SimFilesystem | None = None) -> None:
        self.filesystem = filesystem if filesystem is not None else SimFilesystem()
        self._channels: dict[str, StreamChannel] = {}
        self._stores: dict[str, VariableStore] = {}
        # Called for every channel as it is created; the chaos engine uses
        # this to install its in-transit drop filter on late-made channels.
        self.on_new_channel: Callable[[StreamChannel], None] | None = None
        # Additional new-channel listeners (telemetry and friends) — a
        # list, so nobody fights the chaos engine over the single slot.
        self._channel_listeners: list[Callable[[StreamChannel], None]] = []
        self.tracer: Tracer = NULL_TRACER

    def add_channel_listener(self, listener: Callable[[StreamChannel], None]) -> None:
        """Register a callback invoked for every channel as it is created."""
        self._channel_listeners.append(listener)

    def attach_tracer(self, tracer: Tracer) -> None:
        """Install telemetry: count channels, stores, and published steps.
        Attaching the tracer already attached (a resumed controller's) is
        a no-op: each channel keeps one observer and is counted once."""
        if tracer is self.tracer:
            return
        self.tracer = tracer
        if not tracer.enabled:
            return
        metrics = tracer.metrics
        steps = metrics.counter("staging.steps")

        def _on_put(channel: StreamChannel, step: StreamStep) -> None:
            steps.inc()

        def _instrument(channel: StreamChannel) -> None:
            metrics.counter("staging.channels").inc()
            channel.observers.append(_on_put)

        for channel in self._channels.values():
            _instrument(channel)
        self.add_channel_listener(_instrument)

    # -- channels --------------------------------------------------------------
    def channel(
        self,
        name: str,
        capacity: int = 16,
        policy: OverflowPolicy = OverflowPolicy.DROP_OLDEST,
    ) -> StreamChannel:
        """Get or create the stream channel *name*."""
        ch = self._channels.get(name)
        if ch is None:
            ch = StreamChannel(name, capacity=capacity, policy=policy)
            self._channels[name] = ch
            if self.on_new_channel is not None:
                self.on_new_channel(ch)
            for listener in self._channel_listeners:
                listener(ch)
        return ch

    def has_channel(self, name: str) -> bool:
        return name in self._channels

    def get_channel(self, name: str) -> StreamChannel:
        ch = self._channels.get(name)
        if ch is None:
            raise StagingError(f"no such channel: {name!r}")
        return ch

    def channels(self) -> list[str]:
        return sorted(self._channels)

    # -- stores -----------------------------------------------------------------
    def store(self, name: str) -> VariableStore:
        """Get or create the variable store *name* (backed by the hub FS)."""
        st = self._stores.get(name)
        if st is None:
            st = VariableStore(name, filesystem=self.filesystem)
            self._stores[name] = st
            if self.tracer.enabled:
                self.tracer.metrics.counter("staging.stores").inc()
        return st

    def get_store(self, name: str) -> VariableStore:
        st = self._stores.get(name)
        if st is None:
            raise StagingError(f"no such store: {name!r}")
        return st

    def stores(self) -> list[str]:
        return sorted(self._stores)
