"""Network transport model configuration (XML ``<resilience><network>``).

The Monitor stage is a client/server fabric crossing the machine
interconnect (paper §3/Fig. 2).  :class:`NetworkSpec` describes that
transport: a deterministic fault model (latency/jitter, drop, duplicate,
reorder, timed partition windows), the client-side reliability layer
(ack/retransmit with exponential backoff, bounded send buffer, circuit
breaker), the server-side backpressure knobs (bounded ingress queue,
priority-aware shedding, per-tick drain budget), and the staleness
thresholds that drive the Decision stage's degraded mode.

Per-link overrides (:class:`LinkOverride`) let individual Monitor
clients see different fault profiles — e.g. one client on a congested
switch — while :class:`PartitionWindow` models timed network splits that
silently eat traffic in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ResilienceError
from repro.util.xmlfield import attr, check_fields, children

# The observability health engine publishes its pseudo-task updates
# under this task name (repro.observability.health.HEALTH_TASK); the
# ingress queue sheds ordinary SENSOR samples before these.
HEALTH_TASK = "__dyflow__"


@dataclass(frozen=True)
class PartitionWindow:
    """A timed network split: traffic on the affected link(s) is dropped.

    ``link`` limits the window to one Monitor client's link; ``None``
    partitions every link (the launch node loses the interconnect).
    """

    start: float = attr(ge=0)
    duration: float = attr(gt=0)
    link: str | None = attr(None)

    def validate(self) -> None:
        check_fields(self, ResilienceError, "partition")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


@dataclass(frozen=True)
class LinkOverride:
    """Per-client overrides of the default fault profile (``None`` = inherit)."""

    client: str = attr(nonempty=True)
    latency: float | None = attr(None, ge=0)
    jitter: float | None = attr(None, ge=0)
    drop_prob: float | None = attr(None, ge=0, lt=1)
    dup_prob: float | None = attr(None, ge=0, lt=1)
    reorder_prob: float | None = attr(None, ge=0, lt=1)
    reorder_delay: float | None = attr(None, ge=0)

    def validate(self) -> None:
        check_fields(self, ResilienceError, f"link {self.client!r}")


@dataclass(frozen=True)
class LinkProfile:
    """The resolved fault profile one :class:`FabricLink` runs with."""

    latency: float
    jitter: float
    drop_prob: float
    dup_prob: float
    reorder_prob: float
    reorder_delay: float


@dataclass(frozen=True)
class NetworkSpec:
    """The complete Monitor-fabric transport model.

    Fault model (per link, overridable via ``links``):
        latency/jitter: transit delay is ``latency + U*jitter``;
        drop_prob/dup_prob/reorder_prob: per-copy Bernoulli events;
        reorder_delay: extra delay ``reorder_delay*(1+U)`` a reordered
        copy suffers, letting later envelopes overtake it.

    Reliability (client side):
        ack_timeout: base retransmit timeout; attempt *k* waits
        ``min(ack_timeout * retransmit_factor**k, retransmit_max)``
        scaled by ``1 + U*retransmit_jitter``;
        max_retransmits: retransmit budget per envelope (0 = fire and
        forget: no send buffer, no acks);
        send_buffer: unacked-envelope cap; the oldest entry is evicted
        when full;
        breaker_failures: consecutive give-ups that open the circuit
        breaker (0 disables); while open for ``breaker_reset`` seconds
        new sends are shed at the client.

    Backpressure (server side):
        ingress_capacity: bounded ingress queue (0 = unbounded);
        drain_per_tick: envelopes processed per orchestrator tick
        (0 = drain everything).

    Staleness / degraded mode:
        stale_after: per-task data age (vs ``MonitorServer.last_seen``)
        past which a tick counts as stale (0 disables degraded mode);
        degrade_after/recover_after: consecutive stale/fresh ticks to
        enter/leave degraded mode.
    """

    latency: float = attr(0.0, ge=0)
    jitter: float = attr(0.0, ge=0)
    drop_prob: float = attr(0.0, ge=0, lt=1)
    dup_prob: float = attr(0.0, ge=0, lt=1)
    reorder_prob: float = attr(0.0, ge=0, lt=1)
    reorder_delay: float = attr(0.5, ge=0)
    ack_timeout: float = attr(2.0, gt=0)
    ack_drop_prob: float = attr(0.0, ge=0, lt=1)
    max_retransmits: int = attr(5, ge=0)
    retransmit_factor: float = attr(2.0, ge=1)
    retransmit_max: float = attr(30.0, gt=0)
    retransmit_jitter: float = attr(0.25, ge=0, le=1)
    send_buffer: int = attr(256, ge=1)
    breaker_failures: int = attr(0, ge=0)
    breaker_reset: float = attr(60.0, gt=0)
    ingress_capacity: int = attr(0, ge=0)
    drain_per_tick: int = attr(0, ge=0)
    stale_after: float = attr(0.0, ge=0)
    degrade_after: int = attr(3, ge=1)
    recover_after: int = attr(3, ge=1)
    partitions: tuple[PartitionWindow, ...] = children(PartitionWindow, "partition")
    links: tuple[LinkOverride, ...] = children(LinkOverride, "link")

    def validate(self) -> None:
        check_fields(self, ResilienceError, "network")
        seen: set[str] = set()
        for lo in self.links:
            if lo.client in seen:
                raise ResilienceError(f"duplicate link override for client {lo.client!r}")
            seen.add(lo.client)

    def profile_for(self, link_id: str) -> LinkProfile:
        """Resolve the fault profile of one client's link (overrides applied)."""
        override = next((lo for lo in self.links if lo.client == link_id), None)
        values = {}
        for f in fields(LinkProfile):
            v = getattr(override, f.name) if override is not None else None
            values[f.name] = getattr(self, f.name) if v is None else v
        return LinkProfile(**values)

    def partition_active(self, now: float, link_id: str | None = None) -> bool:
        """True when *now* lies inside a window covering *link_id*.

        ``link_id=None`` asks whether *any* partition is active.
        """
        for w in self.partitions:
            if not w.active(now):
                continue
            if w.link is None or link_id is None or w.link == link_id:
                return True
        return False
