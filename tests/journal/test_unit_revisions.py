"""A unit's revision moves whenever its journaled state does.

A barrier hands over a unit's last state for as long as its ``revision``
stands (``repro.journal.delta.UnitCache``), so a change that bumps no
revision is journaled as if it never happened.  The scenario oracle of
``test_delta_barriers.py`` compares the handed-over state with a freshly
built one at every tick of one run; these properties drive a link and a
health engine through what that run never does — partitions, a breaker,
lost acks, a bound health feed, restores — and require after every call:
the state moved, so the revision moved.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fabric import FabricLink, NetworkSpec, PartitionWindow
from repro.observability import AnomalySpec, HealthEngine, ObservabilitySpec, SloSpec
from repro.observability.slo import HealthAlert
from repro.sim.rng import RngRegistry
from repro.telemetry import Tracer
from repro.util import Envelope


class Tracked:
    """A unit's state and revision as of the last :meth:`check`."""

    def __init__(self, unit) -> None:
        self.unit = unit
        self.state, self.revision = self._now()

    def _now(self):
        return json.dumps(self.unit.state_dict(), sort_keys=True), self.unit.revision

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
    engine = HealthEngine(spec, tracer=tracer, workflow_id="WF",
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
            engine.add_alert(HealthAlert(now, "fabric:degraded", "firing", "warning", x, 1.0, ""))
        elif call == "save":
            saved = engine.state_dict()
        else:
            engine.load_state_dict(saved)
        tracked.check(call)
