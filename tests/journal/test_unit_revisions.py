"""A unit's revision moves whenever its journaled state does.

A barrier writes a unit only when its ``revision`` moved, and hands over
its last state for as long as the revision stands
(``repro.journal.delta.UnitCache``), so a change that bumps no revision
is journaled as if it never happened.  The scenario oracle of
``test_delta_barriers.py`` compares the handed-over state with a freshly
built one at every tick of one run; these properties drive a link, a
health engine, the server's ingress side, degraded mode and the
orchestrator's in-flight deliveries through what that run never does —
partitions, a breaker, lost acks, a bound health feed, a full queue,
direct deliveries, a crash, restores — and require after every call: the
state moved, so the revision moved.
"""

import json
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Allocation, summit
from repro.core import MonitorServer
from repro.fabric import DegradedModeController, FabricLink, NetworkSpec, PartitionWindow
from repro.journal import JournalSpec
from repro.observability import AnomalySpec, HealthEngine, ObservabilitySpec, SloSpec
from repro.observability.health import log_alert
from repro.observability.slo import HealthAlert
from repro.resilience import ResilienceSpec
from repro.runtime import DyflowOrchestrator, RuntimeOptions
from repro.sim import SimEngine
from repro.sim.rng import RngRegistry
from repro.telemetry import Tracer
from repro.util import Envelope
from repro.wms import Savanna, TaskSpec, WorkflowSpec


class Tracked:
    """A unit's state and revision as of the last :meth:`check`; *state*
    and *revision* read them when the unit's are not ``state_dict`` and
    ``revision``."""

    def __init__(self, unit, state=None, revision=None) -> None:
        self._state = state if state is not None else unit.state_dict
        self._revision = revision if revision is not None else (lambda: unit.revision)
        self.state, self.revision = self._now()

    def _now(self):
        return json.dumps(self._state(), sort_keys=True), self._revision()

    def check(self, call: str) -> None:
        state, revision = self._now()
        if state != self.state:
            assert revision != self.revision, f"{call} moved the state and bumped no revision"
        self.state, self.revision = state, revision


def env(seq: int) -> Envelope:
    return Envelope(kind="sensor-update", sender="c0", seq=seq, time=0.0, payload={"updates": []})


LINK_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["send", "poll", "on_ack", "plan_ack", "save", "restore"]),
        st.integers(0, 6), st.floats(0.0, 3.0),
    ),
    max_size=40,
)


#: No ack ever comes: two envelopes are retransmitted, then abandoned,
#: which opens the breaker when there is one; the last send is shed.
UNANSWERED = [("send", 0, 0.0), ("send", 0, 0.0)] + [("poll", 0, 2.5)] * 4 + [("send", 0, 0.1)]


@settings(max_examples=80)
@given(LINK_CALLS, st.sampled_from([0, 2]))
@example(UNANSWERED, 0)
@example(UNANSWERED, 2)
@example([("send", 0, 0.0), ("on_ack", 1, 0.5)], 0)
def test_a_link_bumps_its_revision_whenever_its_state_moves(calls, breaker):
    network = NetworkSpec(
        latency=0.2, jitter=0.1, drop_prob=0.2, dup_prob=0.1, reorder_prob=0.1,
        ack_drop_prob=0.2, ack_timeout=1.0, max_retransmits=2, send_buffer=4,
        breaker_failures=breaker, breaker_reset=5.0,
        partitions=(PartitionWindow(start=10.0, duration=10.0),),
    )
    link = FabricLink("c0", network, RngRegistry(1))
    tracked, saved = Tracked(link), link.state_dict()
    now, sent = 0.0, 0
    for call, n, dt in calls:
        now += dt
        if call == "send":
            sent += 1
            link.send(env(sent), now, lag=0.1)
        elif call == "poll":
            link.poll(now)
        elif call == "on_ack":
            link.on_ack("c0", n, now)
        elif call == "plan_ack":
            link.plan_ack(env(n), now)
        elif call == "save":
            saved = link.state_dict()
        else:
            link.load_state_dict(saved)
        tracked.check(call)


HEALTH_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["tick", "observe", "poll", "alert", "save", "restore"]),
        st.floats(0.0, 4.0),
    ),
    max_size=40,
)


@settings(max_examples=80)
@given(HEALTH_CALLS, st.booleans())
@example([("tick", 0.0), ("poll", 0.0), ("tick", 0.5)], True)  # a trim between evaluations
@example([("tick", 0.0)], False)  # an evaluation that publishes nothing
def test_a_health_engine_bumps_its_revision_whenever_its_state_moves(calls, bound):
    tracer = Tracer(clock=lambda: 0.0)
    spec = ObservabilitySpec(
        eval_every=2.0,
        slos=(SloSpec(metric="plan.response", stat="p95", op="LT", threshold=1.0),),
        anomalies=(AnomalySpec(metric="loop.ticks", stat="value", min_points=2),),
    )
    engine = HealthEngine(spec, tracer=tracer, workflow_id="WF", log=tracer.log,
                          aggregates=lambda: {"loop.ticks": float(len(tracer.records()))})
    source = engine.bind_source() if bound else None
    tracked, saved = Tracked(engine), engine.state_dict()
    now = 0.0
    for call, x in calls:
        now += x
        if call == "tick":
            engine.tick(now)
        elif call == "observe":
            tracer.metrics.histogram("plan.response").observe(x)
        elif call == "poll" and source is not None:
            source.poll(now)
        elif call == "alert":
            alert = HealthAlert(now, "fabric:degraded", "firing", "warning", x, 1.0, "")
            log_alert(engine.log, tracer, alert)  # the run log's, not engine state
        elif call == "save":
            saved = engine.state_dict()
        else:
            engine.load_state_dict(saved)
        tracked.check(call)


SERVER_CALLS = st.lists(
    st.tuples(st.sampled_from(["offer", "offer-health", "take", "save", "restore"]),
              st.integers(0, 5)),
    max_size=40,
)


@settings(max_examples=80)
@given(SERVER_CALLS, st.sampled_from([0, 2]), st.sampled_from([0, 3]))
def test_the_servers_ingress_side_bumps_its_revision_whenever_it_moves(calls, capacity, budget):
    server = MonitorServer()
    server.configure_fabric(NetworkSpec(ingress_capacity=capacity, drain_per_tick=budget))
    tracked = Tracked(server, server.fabric_state_dict, lambda: server.fabric_revision)
    saved = server.fabric_state_dict()
    for call, n in calls:
        if call == "offer":
            server.offer(env(n))
        elif call == "offer-health":
            update = {"task": "__dyflow__", "sensor_id": "H", "value": 1.0}
            server.offer(Envelope(kind="sensor-update", sender="h", seq=n, time=0.0,
                                  payload={"updates": [update]}))
        elif call == "take":
            server.take_ingress()
        elif call == "save":
            saved = server.fabric_state_dict()
        else:
            server.load_fabric_state(saved)
        tracked.check(call)


DEGRADED_CALLS = st.lists(
    st.tuples(st.sampled_from(["tick", "save", "restore"]), st.floats(0.0, 8.0), st.booleans()),
    max_size=40,
)


@settings(max_examples=80)
@given(DEGRADED_CALLS)
def test_degraded_mode_bumps_its_revision_whenever_its_state_moves(calls):
    network = NetworkSpec(stale_after=5.0, degrade_after=2, recover_after=3,
                          partitions=(PartitionWindow(start=10.0, duration=10.0),))
    controller = DegradedModeController(network)
    tracked, saved = Tracked(controller), controller.state_dict()
    now = 0.0
    for call, dt, stale in calls:
        now += dt
        if call == "tick":
            controller.tick(now, {"T": now - 6.0 if stale else now})
        elif call == "save":
            saved = controller.state_dict()
        else:
            controller.load_state_dict(saved)
        tracked.check(call)


INFLIGHT_CALLS = st.lists(
    st.tuples(st.sampled_from(["data", "ack", "run", "deliver", "crash"]),
              st.integers(0, 6), st.floats(0.0, 2.0)),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(INFLIGHT_CALLS)
def test_the_in_flight_table_bumps_its_revision_whenever_it_moves(calls):
    machine = summit(1)
    alloc = Allocation("a0", machine, machine.nodes, walltime_limit=1e9)
    task = TaskSpec("T", lambda: None, nprocs=1)
    engine = SimEngine()
    launcher = Savanna(engine, WorkflowSpec("W", [task], []), alloc, rng=RngRegistry(1))
    with tempfile.TemporaryDirectory() as tmp:
        orch = DyflowOrchestrator(launcher, options=RuntimeOptions(
            journal=JournalSpec(dir=tmp + "/journal", fsync="off"),
            resilience=ResilienceSpec(network=NetworkSpec(latency=0.2)),
        ))
        orch.start()  # the workflow is never launched
        tracked = Tracked(orch, orch._inflight_state, lambda: orch._inflight_revision)
        for call, n, dt in calls:
            at = engine.now + dt
            if call == "data":
                orch._register_delivery(at, env(n), link="client-0")
            elif call == "ack":
                orch._register_delivery(at, env(n), kind="ack", link="client-0")
            elif call == "run":
                engine.run(until=at)
            elif call == "deliver":
                dids = list(orch._inflight_deliveries)
                orch._deliver(dids[n % len(dids)] if dids else n)
            elif not orch.crashed:
                orch._crash()
            tracked.check(call)
