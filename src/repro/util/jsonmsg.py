"""JSON message envelopes and out-of-order filtering.

The DYFLOW implementation exchanges JSON-formatted messages between the
Monitor clients, the Monitor server, Decision and Arbitration (paper §3,
Fig. 2).  The Monitor server "filters the out of order messages from the
client(s)" and Decision "screens incoming sensor messages for out-of-order
updates" — both behaviours live here so every stage shares one protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

# One reused encoder instance: json.dumps() rebuilds the encoder (and its
# markers/buffers) on every call; at 10k-task scale the journal serializes
# tens of thousands of envelopes per run.
_ENC = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


@dataclass(frozen=True)
class Envelope:
    """A routable JSON message.

    Attributes:
        kind: message type, e.g. ``"sensor-update"``, ``"decision"``,
            ``"plan"``, ``"status"``.
        sender: logical id of the sending component.
        seq: per-sender monotonically increasing sequence number.
        time: send timestamp (simulated or wall-clock seconds).
        payload: JSON-serializable body.

    Envelopes are immutable once stamped — treat ``payload`` as frozen
    too: :meth:`to_json` memoizes its result, and transports cache the
    decoded form (:meth:`attach_decoded`) across retransmitted copies.
    """

    kind: str
    sender: str
    seq: int
    time: float
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to the canonical compact JSON string (memoized).

        The bytes are those of ``json.dumps(..., sort_keys=True,
        separators=(",", ":"))``, from one shared :class:`json.JSONEncoder`.
        """
        cached = getattr(self, "_json_cache", None)
        if cached is not None:
            return cached
        text = self._encode()
        object.__setattr__(self, "_json_cache", text)
        return text

    def _encode(self) -> str:
        return _ENC.encode(
            {
                "kind": self.kind,
                "sender": self.sender,
                "seq": self.seq,
                "time": self.time,
                "payload": self.payload,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Envelope":
        """Parse an envelope produced by :meth:`to_json`."""
        obj = json.loads(text)
        return cls(
            kind=obj["kind"],
            sender=obj["sender"],
            seq=int(obj["seq"]),
            time=float(obj["time"]),
            payload=obj.get("payload", {}),
        )

    # -- decoded-object cache ----------------------------------------------------
    # A sender that stamps an envelope from in-memory objects can attach
    # them so an in-process receiver skips re-decoding the payload dicts
    # (repro.core.events.MetricUpdate round-trips to_dict/from_dict
    # exactly, so sharing the originals is bit-identical).  The cache is
    # advisory: envelopes reconstructed via from_json (journal replay,
    # fabric resume) simply have none and the receiver falls back.

    def attach_decoded(self, objs: tuple) -> None:
        """Cache the decoded form of this envelope's payload."""
        object.__setattr__(self, "_decoded_cache", objs)

    def decoded(self) -> tuple | None:
        """The cached decoded payload objects, or None if never attached."""
        return getattr(self, "_decoded_cache", None)


class SequenceTracker:
    """Allocates per-sender sequence numbers."""

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def next_seq(self, sender: str) -> int:
        seq = self._next.get(sender, 0)
        self._next[sender] = seq + 1
        return seq

    def stamp(self, kind: str, sender: str, time: float, payload: dict[str, Any] | None = None) -> Envelope:
        """Build an envelope with the next sequence number for *sender*."""
        return Envelope(
            kind=kind,
            sender=sender,
            seq=self.next_seq(sender),
            time=time,
            payload=payload or {},
        )

    def state_dict(self) -> dict[str, int]:
        return dict(self._next)

    def load_state_dict(self, state: dict[str, int]) -> None:
        self._next = {k: int(v) for k, v in state.items()}


class OutOfOrderFilter:
    """Drop stale messages, per sender.

    A message is *stale* when its sequence number is not greater than the
    highest already accepted from the same sender.  When a sender restarts
    (e.g. a Monitor client restarted along with its tasks), call
    :meth:`reset` so the new epoch's numbering is accepted.
    """

    def __init__(self) -> None:
        self._highest: dict[str, int] = {}
        self._dropped = 0
        self._accepted = 0

    @property
    def dropped(self) -> int:
        """Number of messages rejected as out-of-order so far."""
        return self._dropped

    @property
    def accepted(self) -> int:
        """Number of messages accepted so far."""
        return self._accepted

    def accept(self, env: Envelope) -> bool:
        """Return True and record *env* if it is in order; else drop it."""
        highest = self._highest.get(env.sender)
        if highest is not None and env.seq <= highest:
            self._dropped += 1
            return False
        self._highest[env.sender] = env.seq
        self._accepted += 1
        return True

    def reset(self, sender: str) -> None:
        """Forget the sequence history of *sender* (sender restarted)."""
        self._highest.pop(sender, None)

    def senders(self) -> tuple[str, ...]:
        """Every sender with recorded sequence history, insertion-ordered."""
        return tuple(self._highest)

    def reset_all(self) -> None:
        """Forget every sender's epoch; the drop/accept counters persist."""
        for sender in self.senders():
            self.reset(sender)

    def state_dict(self) -> dict[str, Any]:
        return {
            "highest": dict(self._highest),
            "dropped": self._dropped,
            "accepted": self._accepted,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self._highest = {k: int(v) for k, v in state["highest"].items()}
        self._dropped = int(state["dropped"])
        self._accepted = int(state["accepted"])


class DedupFilter:
    """Exactly-once admission over a retransmitting, reordering transport.

    Unlike :class:`OutOfOrderFilter` — which rejects any regression and
    therefore also rejects retransmitted copies of envelopes that never
    arrived — this filter accepts each (sender, seq) exactly once, in
    any order.  Per sender it keeps a contiguous *floor* (every seq at
    or below it was seen) plus the sparse set of seqs seen above it; the
    floor advances as gaps fill in, so with acks/retransmits keeping
    loss bounded the set stays tiny.  Same interface as
    :class:`OutOfOrderFilter` so :class:`~repro.core.monitor.MonitorServer`
    can host either.
    """

    def __init__(self) -> None:
        self._floor: dict[str, int] = {}
        self._seen: dict[str, set[int]] = {}
        self._dropped = 0
        self._accepted = 0

    @property
    def dropped(self) -> int:
        """Number of messages rejected so far (all of them duplicates)."""
        return self._dropped

    @property
    def duplicates(self) -> int:
        """Alias of :attr:`dropped`: every rejection is a duplicate."""
        return self._dropped

    @property
    def accepted(self) -> int:
        return self._accepted

    def accept(self, env: Envelope) -> bool:
        """Return True the first time (sender, seq) is seen; else drop."""
        floor = self._floor.get(env.sender, -1)
        seen = self._seen.setdefault(env.sender, set())
        if env.seq <= floor or env.seq in seen:
            self._dropped += 1
            return False
        seen.add(env.seq)
        while floor + 1 in seen:
            floor += 1
            seen.discard(floor)
        self._floor[env.sender] = floor
        self._accepted += 1
        return True

    def reset(self, sender: str) -> None:
        """Forget *sender*'s history (the sender renumbered from zero)."""
        self._floor.pop(sender, None)
        self._seen.pop(sender, None)

    def senders(self) -> tuple[str, ...]:
        return tuple(self._floor)

    def reset_all(self) -> None:
        for sender in self.senders():
            self.reset(sender)

    def state_dict(self) -> dict[str, Any]:
        return {
            "floor": dict(self._floor),
            "seen": {k: sorted(v) for k, v in self._seen.items()},
            "dropped": self._dropped,
            "accepted": self._accepted,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        self._floor = {k: int(v) for k, v in state["floor"].items()}
        self._seen = {k: {int(s) for s in v} for k, v in state["seen"].items()}
        self._dropped = int(state["dropped"])
        self._accepted = int(state["accepted"])
