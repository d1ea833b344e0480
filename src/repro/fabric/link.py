"""FabricLink: one Monitor client's lossy, reliable transport link.

The link sits between ``MonitorClient.collect()`` and
``MonitorServer.receive()`` and is a *pure state machine*: it decides
what happens to each envelope (delivery times, extra copies, drops) but
never touches the clock or the event loop itself — the driver registers
the returned ``(deliver_at, envelope)`` outcomes however its substrate
works (engine events under the simulated driver, a pending list under
the threaded one).  All randomness comes from named
:class:`~repro.sim.rng.RngRegistry` streams, so chaos runs replay
bit-identically, and the full in-flight state (send buffer, breaker,
RNG positions) round-trips ``state_dict()`` for the crash journal.  The
link draws only through ``RngRegistry.random``, so its RNG positions are
draw counts, not generator states.
``revision`` moves whenever that state may have, so a barrier rebuilds
the state only when it moved: every method that changes it bumps it,
except ``_u`` and ``_rto``, which only the bumping methods call.

Reliability protocol: every data copy the server *admits* is acked;
unacked envelopes are retransmitted on an exponential-backoff schedule
polled by the driver (tick granularity) until the retransmit budget is
spent, after which the envelope is abandoned and — with a breaker
configured — counts toward opening the circuit breaker, which sheds new
sends at the client until it half-opens after ``breaker_reset``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.spec import NetworkSpec
from repro.sim.rng import RngRegistry
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.jsonmsg import Envelope

# One RNG stream per concern keeps draws independent of code-path
# reordering across concerns (the same discipline as CHAOS_STREAMS).
_STREAM_SUFFIXES = ("net", "drop", "dup", "reorder", "ackdrop", "backoff")


def fabric_streams(link_id: str) -> tuple[str, ...]:
    """The named RNG streams one link draws from (for state capture)."""
    return tuple(f"fabric:{link_id}:{s}" for s in _STREAM_SUFFIXES)


@dataclass
class _Buffered:
    """One unacked envelope awaiting ack or retransmit."""

    env: Envelope
    attempts: int
    next_retry: float


class FabricLink:
    """Client-side reliability + fault model for one Monitor link."""

    def __init__(
        self,
        link_id: str,
        network: NetworkSpec,
        rng: RngRegistry,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.link_id = link_id
        self.network = network
        self.profile = network.profile_for(link_id)
        self.rng = rng
        self.tracer = tracer
        self.streams = fabric_streams(link_id)
        self.revision = 0
        # (sender, seq) -> _Buffered, insertion-ordered for eviction.
        self._buffer: dict[tuple[str, int], _Buffered] = {}
        self._breaker_failures = 0
        self.breaker_open_until: float | None = None
        # Counters (source of truth for telemetry and the fault bench).
        self.sent = 0
        self.transmitted = 0
        self.dropped = 0
        self.partition_dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.retransmits = 0
        self.acked = 0
        self.gave_up = 0
        self.evicted = 0
        self.ack_dropped = 0
        self.breaker_shed = 0
        self.breaker_trips = 0

    # -- helpers -----------------------------------------------------------------
    def _u(self, suffix: str) -> float:
        return self.rng.random(f"fabric:{self.link_id}:{suffix}")

    def _count(self, name: str, amount: int = 1) -> None:
        if self.tracer.enabled:
            self.tracer.metrics.counter(f"fabric.{name}").inc(amount)

    def _rto(self, attempt: int) -> float:
        """Timeout before retransmit *attempt* (0-based), jitter included."""
        net = self.network
        base = min(net.ack_timeout * net.retransmit_factor ** attempt, net.retransmit_max)
        if net.retransmit_jitter > 0:
            base *= 1.0 + net.retransmit_jitter * self._u("backoff")
        return base

    @property
    def unacked(self) -> int:
        return len(self._buffer)

    def breaker_open(self, now: float) -> bool:
        return self.breaker_open_until is not None and now < self.breaker_open_until

    # -- transit -----------------------------------------------------------------
    def _transit(self, env: Envelope, depart: float) -> list[tuple[float, Envelope]]:
        """Put one envelope on the wire; return its (deliver_at, copy) list."""
        self.revision += 1
        self.transmitted += 1
        if self.network.partition_active(depart, self.link_id):
            self.partition_dropped += 1
            self._count("partition_dropped")
            return []
        p = self.profile
        if p.drop_prob > 0 and self._u("drop") < p.drop_prob:
            self.dropped += 1
            self._count("dropped")
            return []
        at = depart + p.latency + p.jitter * self._u("net")
        if p.reorder_prob > 0 and self._u("reorder") < p.reorder_prob:
            # The copy dawdles long enough for later sends to overtake it.
            at += p.reorder_delay * (1.0 + self._u("reorder"))
            self.reordered += 1
            self._count("reordered")
        out = [(at, env)]
        if p.dup_prob > 0 and self._u("dup") < p.dup_prob:
            out.append((depart + p.latency + p.jitter * self._u("net"), env))
            self.duplicated += 1
            self._count("duplicated")
        return out

    # -- client API ----------------------------------------------------------------
    def send(self, env: Envelope, now: float, lag: float = 0.0) -> list[tuple[float, Envelope]]:
        """Offer one fresh envelope to the link; returns transit outcomes.

        *lag* is the sensor's source read lag: the envelope leaves the
        client at ``now + lag`` (preserving the un-fabric'd delivery
        semantics), network delay on top.
        """
        self.revision += 1
        if self.breaker_open(now):
            self.breaker_shed += 1
            self._count("breaker_shed")
            return []
        if self.network.max_retransmits > 0:
            if len(self._buffer) >= self.network.send_buffer:
                self._buffer.pop(next(iter(self._buffer)))
                self.evicted += 1
                self._count("evicted")
            self._buffer[(env.sender, env.seq)] = _Buffered(
                env=env, attempts=0, next_retry=now + self._rto(0)
            )
        self.sent += 1
        self._count("sent")
        return self._transit(env, now + lag)

    def poll(self, now: float) -> list[tuple[float, Envelope]]:
        """Retransmit due unacked envelopes; abandon exhausted ones.

        Called by the driver at tick granularity.  While the breaker is
        open retransmits are deferred, not abandoned — the backlog gets
        another chance when the breaker half-opens.
        """
        if self.breaker_open(now):
            return []
        out: list[tuple[float, Envelope]] = []
        for key in [k for k, b in self._buffer.items() if b.next_retry <= now]:
            self.revision += 1
            buffered = self._buffer[key]
            if buffered.attempts >= self.network.max_retransmits:
                del self._buffer[key]
                self.gave_up += 1
                self._count("gave_up")
                self._breaker_failure(now)
                continue
            buffered.attempts += 1
            buffered.next_retry = now + self._rto(buffered.attempts)
            self.retransmits += 1
            self._count("retransmits")
            out.extend(self._transit(buffered.env, now))
        return out

    def on_ack(self, sender: str, seq: int, now: float) -> bool:
        """The server acked (sender, seq): clear it from the send buffer."""
        entry = self._buffer.pop((sender, seq), None)
        if entry is None:
            return False  # duplicate/late ack, or the entry was evicted
        self.revision += 1
        self.acked += 1
        self._count("acked")
        self._breaker_failures = 0
        return True

    def plan_ack(self, env: Envelope, now: float) -> float | None:
        """Schedule the server->client ack; ``None`` if the ack is lost."""
        if self.network.max_retransmits == 0:
            return None  # fire-and-forget mode: nothing listens for acks
        self.revision += 1
        if self.network.partition_active(now, self.link_id):
            self.ack_dropped += 1
            self._count("ack_dropped")
            return None
        if self.network.ack_drop_prob > 0 and self._u("ackdrop") < self.network.ack_drop_prob:
            self.ack_dropped += 1
            self._count("ack_dropped")
            return None
        p = self.profile
        return now + p.latency + p.jitter * self._u("net")

    def _breaker_failure(self, now: float) -> None:
        if self.network.breaker_failures <= 0:
            return
        self.revision += 1
        self._breaker_failures += 1
        if self._breaker_failures >= self.network.breaker_failures:
            self.breaker_open_until = now + self.network.breaker_reset
            self.breaker_trips += 1
            self._count("breaker_trips")
            self._breaker_failures = 0

    # -- crash recovery --------------------------------------------------------------
    _COUNTERS = (
        "sent", "transmitted", "dropped", "partition_dropped", "duplicated",
        "reordered", "retransmits", "acked", "gave_up", "evicted",
        "ack_dropped", "breaker_shed", "breaker_trips",
    )

    def state_dict(self) -> dict:
        return {
            "buffer": [
                {"env": b.env.to_json(), "attempts": b.attempts, "next_retry": b.next_retry}
                for b in self._buffer.values()
            ],
            "breaker_failures": self._breaker_failures,
            "breaker_open_until": self.breaker_open_until,
            "counters": {name: getattr(self, name) for name in self._COUNTERS},
            "rng": self.rng.state_dict(names=self.streams),
        }

    def load_state_dict(self, state: dict) -> None:
        self.revision += 1
        self._buffer = {}
        for item in state["buffer"]:
            env = Envelope.from_json(item["env"])
            self._buffer[(env.sender, env.seq)] = _Buffered(
                env=env,
                attempts=int(item["attempts"]),
                next_retry=float(item["next_retry"]),
            )
        self._breaker_failures = int(state["breaker_failures"])
        raw = state["breaker_open_until"]
        self.breaker_open_until = None if raw is None else float(raw)
        for name, value in state["counters"].items():
            setattr(self, name, int(value))
        self.rng.load_state_dict(state.get("rng", {}))
