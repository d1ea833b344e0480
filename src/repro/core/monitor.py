"""Monitor stage: client/server procurement of runtime metrics (paper §3).

The implementation mirrors the paper's architecture: one or more
**clients** execute the sensors — connecting to streams, scanning disks,
reading files — and ship metric updates to a single **server** (running
on the launch node) that filters out-of-order messages, tracks task
restarts, and forwards clean updates to the Decision stage.

The transport is abstract: the simulated driver delivers each client
envelope after the source's read lag (reproducing §4.6's measured
0.2 s file vs ≈0.5 s stream lags); the threaded driver moves the same
envelopes over real queues.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.cluster.machine import MachinePerf
from repro.core.events import MetricUpdate
from repro.core.sensors.base import SensorInstance, SensorSpec
from repro.errors import SensorError
from repro.sim.trace import RunLog
from repro.telemetry.metrics import LatencyHistogram
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.util.jsonmsg import DedupFilter, Envelope, OutOfOrderFilter, SequenceTracker

if TYPE_CHECKING:
    from repro.fabric.spec import NetworkSpec

# The observability health engine's pseudo-task name (kept in sync with
# repro.observability.health.HEALTH_TASK; importing it would cycle).
_HEALTH_TASK = "__dyflow__"


@dataclass(frozen=True)
class MonitorTaskBinding:
    """One (monitored task, sensor instance) pair living on a client.

    ``task`` and ``sensor_id`` are fixed at bind time: the client indexes
    its bindings by them, so they must not follow later edits of the
    instance.
    """

    instance: SensorInstance
    task: str
    sensor_id: str


class MonitorClient:
    """Executes sensors and emits timestamped, sequenced envelopes."""

    def __init__(self, client_id: str, perf: MachinePerf) -> None:
        self.client_id = client_id
        self.perf = perf
        # Creation order is the order of collect() and of the journaled
        # cursor list; the indexes below are derived from it at bind
        # time and never journaled.
        self._bindings: list[MonitorTaskBinding] = []
        self._by_task: dict[str, list[int]] = {}
        # Indices of the bindings that may have data: marked at bind,
        # restart and restore, and by each source's watch when its data
        # changes (in the threaded driver those writes and collect()
        # share one lock).
        self._wake: set[int] = set()
        # sensor id -> (spec of its first binding, largest read lag)
        self._sensors: dict[str, tuple[SensorSpec, float]] = {}
        self._seq = SequenceTracker()
        #: Bumped by every call that may change ``state_dict``: bind,
        #: restart, restore, and a round that polls.
        self.revision = 0

    # -- configuration -----------------------------------------------------------
    def add_binding(self, instance: SensorInstance) -> MonitorTaskBinding:
        sensor_id = instance.spec.sensor_id
        binding = MonitorTaskBinding(instance, instance.task, sensor_id)
        self.revision += 1
        index = len(self._bindings)
        self._bindings.append(binding)
        self._by_task.setdefault(binding.task, []).append(index)
        instance.source.watch(self._wake, index)
        self._wake.add(index)  # the first poll connects
        spec, lag = self._sensors.get(sensor_id, (instance.spec, 0.0))
        self._sensors[sensor_id] = (spec, max(lag, instance.source.read_lag(self.perf)))
        return binding

    def unwatch(self) -> None:
        """No source wakes this client any more: its controller died, and
        a resumed one binds its own."""
        for b in self._bindings:
            b.instance.source.unwatch(self._wake)

    @property
    def bindings(self) -> list[MonitorTaskBinding]:
        return list(self._bindings)

    # -- lifecycle ----------------------------------------------------------------
    def on_task_restart(self, task: str) -> None:
        """Reset connections of every sensor watching *task* (§2.1)."""
        for i in self._by_task.get(task, ()):
            self.revision += 1
            self._bindings[i].instance.reconnect()
            self._wake.add(i)

    # -- crash recovery ------------------------------------------------------------
    def state_dict(self) -> dict:
        """Sequence counters + per-binding source cursors (creation order)."""
        return {
            "seq": self._seq.state_dict(),
            "cursors": [b.instance.source.cursor_state() for b in self._bindings],
        }

    def load_state_dict(self, state: dict) -> None:
        self.revision += 1
        self._seq.load_state_dict(state["seq"])
        cursors = state.get("cursors", [])
        if len(cursors) != len(self._bindings):
            from repro.errors import JournalError

            raise JournalError(
                f"client {self.client_id}: {len(cursors)} journaled cursors "
                f"for {len(self._bindings)} bindings — configuration drift"
            )
        for binding, cursor in zip(self._bindings, cursors):
            binding.instance.source.restore_cursor(cursor)
        self._wake.update(range(len(self._bindings)))

    # -- collection ------------------------------------------------------------------
    def collect(self, now: float) -> list[tuple[float, Envelope]]:
        """Run the sensors that may have data; return ``(read_lag, envelope)`` pairs.

        A round polls only the bindings marked since the last one, in
        creation order: every source wakes its binding when its data
        changes, so a binding left out would have returned nothing.  A
        round with nothing marked returns at once.  A poll that raises
        leaves itself and the bindings after it marked for the next
        round.  See :meth:`_envelopes` for the packing.
        """
        wake = self._wake
        if not wake:
            return []
        self.revision += 1
        due = sorted(wake)
        wake.clear()
        bindings = self._bindings
        round_updates: dict[str, list[MetricUpdate]] = {}
        polled = 0
        try:
            for i in due:
                b = bindings[i]
                ups = b.instance.poll(now)
                polled += 1
                if ups:
                    round_updates.setdefault(b.sensor_id, []).extend(ups)
        except Exception:
            wake.update(due[polled:])
            raise
        return self._envelopes(round_updates, now)

    def _envelopes(
        self, round_updates: dict[str, list[MetricUpdate]], now: float
    ) -> list[tuple[float, Envelope]]:
        """One envelope per sensor with updates this round.

        Each collects the updates of all the sensor's task bindings.
        Joined sensors are resolved within the round: a sensor with a
        ``join`` spec pairs its updates with the partner sensor's from
        the same round, matched on (granularity, key, step).
        """
        out: list[tuple[float, Envelope]] = []
        for sensor_id, ups in round_updates.items():
            spec, lag = self._sensors[sensor_id]
            if spec.join is not None:
                ups = self._join(spec, ups, round_updates.get(spec.join.other_sensor_id, []))
            if not ups:
                continue
            env = self._seq.stamp(
                "sensor-update",
                f"{self.client_id}/{sensor_id}",
                now,
                {"updates": [u.to_dict() for u in ups]},
            )
            # Cache the originals so an in-process server skips re-decoding
            # the payload dicts (to_dict/from_dict round-trips exactly).
            env.attach_decoded(tuple(ups))
            out.append((lag, env))
        return out

    @staticmethod
    def _join(spec, ups: list[MetricUpdate], partner: list[MetricUpdate]) -> list[MetricUpdate]:
        by_key = {(p.granularity, p.key, p.step): p for p in partner}
        joined = []
        for u in ups:
            other = by_key.get((u.granularity, u.key, u.step))
            if other is None:
                continue
            joined.append(
                MetricUpdate(
                    sensor_id=u.sensor_id,
                    workflow_id=u.workflow_id,
                    task=u.task,
                    granularity=u.granularity,
                    key=u.key,
                    value=spec.join.apply(u.value, other.value),
                    time=max(u.time, other.time),
                    step=u.step,
                    var=f"{u.var}/{other.var}",
                )
            )
        return joined


class MonitorServer:
    """Filters and forwards client updates to the Decision stage."""

    def __init__(
        self,
        on_updates: Callable[[list[MetricUpdate]], None] | None = None,
        record_history: bool = False,
        log: RunLog | None = None,
    ) -> None:
        self._filter: OutOfOrderFilter | DedupFilter = OutOfOrderFilter()
        self._on_updates = on_updates
        self.received = 0
        self.forwarded = 0
        self.record_history = record_history
        #: The run log accepted updates go to while ``record_history`` is
        #: set (a runtime passes its launcher's): run output, so neither
        #: journaled nor restored with the server's state.
        self.log = log if log is not None else RunLog()
        # Per-task time of the freshest accepted update — the watchdog's
        # transport-level liveness signal (a hung app stops producing).
        self.last_seen: dict[str, float] = {}
        self.tracer: Tracer = NULL_TRACER
        self._clock: Callable[[], float] | None = None
        # Fabric mode (configure_fabric): bounded ingress queue with
        # priority-aware shedding, seq-based dedup, ingest staleness.
        self._network: "NetworkSpec | None" = None
        self._ingress: deque[Envelope] = deque()
        self.offered = 0
        self.shed_sensor = 0
        self.shed_health = 0
        self.ingest_staleness = LatencyHistogram("monitor.ingest.staleness")

    # -- fabric mode ---------------------------------------------------------------
    def configure_fabric(self, network: "NetworkSpec") -> None:
        """Put the server behind a :class:`~repro.fabric.link.FabricLink`.

        Swaps the out-of-order filter for seq-based dedup (retransmitted
        and reordered envelopes are *expected*, only true duplicates
        drop) and arms the bounded ingress queue.  Call before any
        envelope arrives — the filters' histories are not migrated.
        """
        if self._filter.accepted or self._filter.dropped:
            raise SensorError("configure_fabric must run before the first envelope")
        self._network = network
        self._filter = DedupFilter()

    @property
    def history(self) -> list[MetricUpdate]:
        """The accepted updates the run log holds, in arrival order."""
        return self.log.of_type(MetricUpdate)

    @property
    def fabric_enabled(self) -> bool:
        return self._network is not None

    @property
    def duplicates(self) -> int:
        """Envelopes rejected as already-delivered (fabric dedup mode)."""
        return self._filter.duplicates if isinstance(self._filter, DedupFilter) else 0

    @property
    def ingress_depth(self) -> int:
        return len(self._ingress)

    @staticmethod
    def _is_health(env: Envelope) -> bool:
        cached = env.decoded()
        if cached is not None:
            return bool(cached) and all(u.task == _HEALTH_TASK for u in cached)
        updates = env.payload.get("updates", [])
        return bool(updates) and all(u.get("task") == _HEALTH_TASK for u in updates)

    def offer(self, env: Envelope) -> bool:
        """Fabric ingress admission; True means queued (and worth acking).

        When the queue is full the oldest SENSOR envelope is shed first
        (freshness beats completeness for pace data); an arriving SENSOR
        envelope finding a queue full of HEALTH updates is itself
        rejected — unacked, so the client's retransmit timer becomes the
        backpressure signal.
        """
        if self._network is None:
            raise SensorError("offer() requires configure_fabric()")
        self.offered += 1
        cap = self._network.ingress_capacity
        if cap and len(self._ingress) >= cap:
            victim = next((e for e in self._ingress if not self._is_health(e)), None)
            if victim is not None:
                self._ingress.remove(victim)
                self.shed_sensor += 1
            elif self._is_health(env):
                self._ingress.popleft()
                self.shed_health += 1
            else:
                self.shed_sensor += 1
                if self.tracer.enabled:
                    self.tracer.metrics.counter("monitor.envelopes_shed").inc()
                return False
            if self.tracer.enabled:
                self.tracer.metrics.counter("monitor.envelopes_shed").inc()
        self._ingress.append(env)
        return True

    def take_ingress(self) -> list[Envelope]:
        """Pop this tick's drain batch (bounded by ``drain_per_tick``)."""
        if self._network is None:
            return []
        budget = self._network.drain_per_tick
        n = len(self._ingress) if budget == 0 else min(budget, len(self._ingress))
        return [self._ingress.popleft() for _ in range(n)]

    def note_staleness(self, age: float) -> None:
        """Record one envelope's ingest staleness (now - envelope.time)."""
        self.ingest_staleness.observe(age)
        if self.tracer.enabled:
            self.tracer.metrics.histogram("monitor.ingest.staleness").observe(age)

    def set_tracer(self, tracer: Tracer, clock: Callable[[], float] | None = None) -> None:
        """Attach a tracer; *clock* (runtime time) enables ingest-latency metrics."""
        self.tracer = tracer
        self._clock = clock

    @property
    def dropped(self) -> int:
        return self._filter.dropped

    def receive(self, envelope: Envelope) -> list[MetricUpdate]:
        """Ingest one client envelope; returns the forwarded updates."""
        self.received += 1
        if envelope.kind != "sensor-update":
            raise SensorError(f"monitor server got unexpected message kind {envelope.kind!r}")
        if not self._filter.accept(envelope):
            if self.tracer.enabled:
                self.tracer.metrics.counter("monitor.envelopes_dropped").inc()
            return []
        cached = envelope.decoded()
        if cached is not None:
            # In-process fast path: the client attached the original
            # MetricUpdate objects at stamp time (bit-identical to
            # re-decoding — to_dict/from_dict round-trips exactly).
            updates = list(cached)
        else:
            updates = [MetricUpdate.from_dict(d) for d in envelope.payload.get("updates", [])]
        self.forwarded += len(updates)
        for u in updates:
            prev = self.last_seen.get(u.task)
            if prev is None or envelope.time > prev:
                self.last_seen[u.task] = envelope.time
        if self.record_history:
            self.log.extend(updates)
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("monitor.envelopes").inc()
            metrics.counter("monitor.updates").inc(len(updates))
            attrs = {"sender": envelope.sender, "updates": len(updates)}
            if self._clock is not None:
                # Transport latency: how stale the data is on arrival
                # (read lag + network lag under the simulated driver).
                lag = max(0.0, self._clock() - envelope.time)
                metrics.histogram("stage.monitor.latency").observe(lag)
                attrs["lag"] = lag
            span = self.tracer.start_span("monitor.ingest", "monitor", **attrs)
            self.tracer.end_span(span)
        if self._on_updates is not None and updates:
            self._on_updates(updates)
        return updates

    def on_task_restart(self, task: str) -> None:
        """A task restarted: affected clients may renumber their streams.

        The server cannot know which sensors a task feeds, so it resets
        every sender epoch — strictly safe: it only widens what the
        filter will accept going forward.  In fabric mode the dedup
        filter keeps its memory instead: Monitor clients survive task
        restarts and never renumber, and forgetting seen seqs would
        re-admit retransmitted copies as fresh data (double delivery).
        """
        if self.fabric_enabled:
            return
        self._filter.reset_all()

    # -- crash recovery ------------------------------------------------------
    def fabric_state_dict(self) -> dict:
        """The ingress-side state the tick barrier journals in fabric mode.

        The queue itself is journaled here (not rebuilt from ``obs``
        records: those are appended at *drain*, so offered-but-undrained
        envelopes exist only in this snapshot).  The ingest-staleness
        histogram is telemetry, not state — it is not journaled.
        """
        return {
            "queue": [e.to_json() for e in self._ingress],
            "offered": self.offered,
            "shed_sensor": self.shed_sensor,
            "shed_health": self.shed_health,
        }

    def load_fabric_state(self, state: dict) -> None:
        self._ingress = deque(Envelope.from_json(s) for s in state["queue"])
        self.offered = int(state["offered"])
        self.shed_sensor = int(state["shed_sensor"])
        self.shed_health = int(state["shed_health"])

    def state_dict(self) -> dict:
        """The filter, counters and last-seen times; never the history."""
        state = {
            "filter": self._filter.state_dict(),
            "received": self.received,
            "forwarded": self.forwarded,
            "last_seen": dict(self.last_seen),
        }
        if self.fabric_enabled:
            state["fabric"] = self.fabric_state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        self._filter.load_state_dict(state["filter"])
        self.received = int(state["received"])
        self.forwarded = int(state["forwarded"])
        self.last_seen = {k: float(v) for k, v in state["last_seen"].items()}
        if self.fabric_enabled and state.get("fabric") is not None:
            self.load_fabric_state(state["fabric"])
