"""FabricLink unit tests: faults, reliability protocol, crash round-trip."""

from repro.fabric import FabricLink, NetworkSpec, PartitionWindow, fabric_streams
from repro.sim.rng import RngRegistry
from repro.util import Envelope


def env(seq: int, sender: str = "c0", time: float = 0.0) -> Envelope:
    return Envelope(kind="sensor-update", sender=sender, seq=seq, time=time,
                    payload={"updates": []})


def link(**kw) -> FabricLink:
    kw.setdefault("retransmit_jitter", 0.0)
    return FabricLink("c0", NetworkSpec(**kw), RngRegistry(0))


class TestFaults:
    def test_clean_wire_delivers_at_latency(self):
        lk = link(latency=1.5, max_retransmits=0)
        out = lk.send(env(0), now=10.0, lag=0.5)
        assert out == [(12.0, env(0))]
        assert lk.sent == 1 and lk.transmitted == 1

    def test_certain_drop_loses_the_copy(self):
        lk = link(drop_prob=0.999999, max_retransmits=0)
        assert lk.send(env(0), 0.0) == []
        assert lk.dropped == 1

    def test_certain_dup_delivers_twice(self):
        lk = link(dup_prob=0.999999, max_retransmits=0)
        out = lk.send(env(0), 0.0)
        assert len(out) == 2 and all(e == env(0) for _, e in out)
        assert lk.duplicated == 1

    def test_reorder_adds_delay(self):
        lk = link(latency=1.0, reorder_prob=0.999999, reorder_delay=5.0,
                  max_retransmits=0)
        (at, _), = lk.send(env(0), 0.0)
        assert at >= 6.0  # latency + reorder_delay*(1+U)
        assert lk.reordered == 1

    def test_partition_eats_data_and_acks(self):
        lk = link(partitions=(PartitionWindow(10.0, 5.0),))
        assert lk.send(env(0), 10.0) == []
        assert lk.partition_dropped == 1
        assert lk.plan_ack(env(0), 12.0) is None
        assert lk.ack_dropped == 1
        # Outside the window traffic flows again.
        assert lk.send(env(1), 20.0) != []

    def test_per_link_partition_scoping(self):
        spec = NetworkSpec(partitions=(PartitionWindow(0.0, 10.0, link="other"),))
        lk = FabricLink("c0", spec, RngRegistry(0))
        assert lk.send(env(0), 5.0) != []


class TestReliability:
    def test_ack_clears_buffer(self):
        lk = link(ack_timeout=2.0, max_retransmits=3)
        lk.send(env(0), 0.0)
        assert lk.unacked == 1
        assert lk.on_ack("c0", 0, 0.5)
        assert lk.unacked == 0 and lk.acked == 1
        assert not lk.on_ack("c0", 0, 0.6)  # duplicate ack is a no-op

    def test_retransmit_backoff_schedule(self):
        lk = link(ack_timeout=2.0, retransmit_factor=2.0, retransmit_max=100.0,
                  max_retransmits=3)
        lk.send(env(0), 0.0)
        assert lk.poll(1.9) == []           # not yet due
        out = lk.poll(2.0)                  # attempt 1 at RTO=2
        assert len(out) == 1 and lk.retransmits == 1
        assert lk.poll(3.0) == []           # next RTO is 2*2=4 from 2.0
        assert len(lk.poll(6.0)) == 1       # attempt 2
        assert len(lk.poll(14.0)) == 1      # attempt 3 (RTO 8)
        out = lk.poll(30.0)                 # budget spent: abandoned
        assert out == [] and lk.gave_up == 1 and lk.unacked == 0

    def test_fire_and_forget_never_buffers(self):
        lk = link(max_retransmits=0)
        lk.send(env(0), 0.0)
        assert lk.unacked == 0
        assert lk.plan_ack(env(0), 0.0) is None

    def test_send_buffer_evicts_oldest(self):
        lk = link(send_buffer=2, max_retransmits=3)
        for i in range(3):
            lk.send(env(i), 0.0)
        assert lk.unacked == 2 and lk.evicted == 1
        assert not lk.on_ack("c0", 0, 1.0)  # seq 0 was the evictee

    def test_ack_plan_clean_wire(self):
        lk = link(latency=0.5, max_retransmits=3)
        assert lk.plan_ack(env(0), 4.0) == 4.5

    def test_certain_ack_loss(self):
        lk = link(ack_drop_prob=0.999999, max_retransmits=3)
        assert lk.plan_ack(env(0), 0.0) is None
        assert lk.ack_dropped == 1


class TestBreaker:
    def mk(self):
        return link(ack_timeout=1.0, max_retransmits=1,
                    breaker_failures=2, breaker_reset=60.0)

    def trip(self, lk):
        # Two envelopes giving up back to back opens the breaker.
        lk.send(env(0), 0.0)
        lk.send(env(1), 0.0)
        lk.poll(1.0)    # retransmit attempt 1 for both
        lk.poll(10.0)   # both exhausted -> 2 consecutive give-ups

    def test_trips_after_consecutive_giveups(self):
        lk = self.mk()
        self.trip(lk)
        assert lk.breaker_trips == 1 and lk.breaker_open(10.1)
        assert lk.send(env(2), 11.0) == [] and lk.breaker_shed == 1

    def test_half_opens_after_reset(self):
        lk = self.mk()
        self.trip(lk)
        assert not lk.breaker_open(70.1)
        assert lk.send(env(2), 70.5) != []

    def test_ack_resets_failure_streak(self):
        lk = link(ack_timeout=1.0, max_retransmits=1, breaker_failures=2)
        lk.send(env(0), 0.0)
        lk.poll(1.0)
        lk.poll(10.0)  # one give-up
        lk.send(env(1), 10.0)
        lk.on_ack("c0", 1, 10.5)  # success: streak back to zero
        lk.send(env(2), 11.0)
        lk.poll(12.0)
        lk.poll(30.0)  # another give-up, but not consecutive
        assert lk.breaker_trips == 0


class TestStateDict:
    def test_round_trip_mid_flight(self):
        lk = link(ack_timeout=2.0, drop_prob=0.3, max_retransmits=3)
        for i in range(4):
            lk.send(env(i, time=float(i)), float(i))
        lk.on_ack("c0", 1, 4.0)
        state = lk.state_dict()

        fresh = link(ack_timeout=2.0, drop_prob=0.3, max_retransmits=3)
        fresh.load_state_dict(state)
        assert fresh.unacked == lk.unacked
        assert fresh.sent == lk.sent and fresh.acked == lk.acked
        # The resumed link's future behavior matches the original's.
        assert fresh.poll(50.0) == lk.poll(50.0)
        assert fresh.state_dict() == lk.state_dict()

    def test_streams_named_per_link(self):
        assert fabric_streams("c7") == tuple(
            f"fabric:c7:{s}" for s in ("net", "drop", "dup", "reorder",
                                       "ackdrop", "backoff")
        )


#: A link unit as the journal held it before links drew through
#: ``RngRegistry.random``: every stream as its full PCG64 state.  Taken
#: after three sends with their acks planned and one ack received, on
#: ``OLD_NETWORK`` with ``RngRegistry(0)``; ``OLD_AFTER`` is what that
#: link did next: ``poll(50.0)``, ``plan_ack`` of seq 7 at 51.0, a send
#: of seq 8 at 52.0, as ``[deliver_at, seq]``.
OLD_NETWORK = dict(latency=0.2, jitter=0.1, drop_prob=0.3, dup_prob=0.2, reorder_prob=0.2,
                   ack_drop_prob=0.2, ack_timeout=2.0, max_retransmits=3,
                   retransmit_jitter=0.5)
OLD_UNIT = {
    "buffer": [
        {"env": '{"kind":"sensor-update","payload":{"updates":[]},"sender":"c0","seq":0,'
                '"time":0.0}', "attempts": 0, "next_retry": 2.6065799863304986},
        {"env": '{"kind":"sensor-update","payload":{"updates":[]},"sender":"c0","seq":2,'
                '"time":2.0}', "attempts": 0, "next_retry": 4.316144643494887},
    ],
    "breaker_failures": 0,
    "breaker_open_until": None,
    "counters": {
        "sent": 3, "transmitted": 3, "dropped": 2, "partition_dropped": 0, "duplicated": 1,
        "reordered": 0, "retransmits": 0, "acked": 1, "gave_up": 0, "evicted": 0,
        "ack_dropped": 0, "breaker_shed": 0, "breaker_trips": 0,
    },
    "rng": {"seed": 0, "streams": {
        f"fabric:c0:{name}": {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }
        for name, state, inc in [
            ("net", 144688744792956834156726808738900470302,
             56709022549036425588505152224355447101),
            ("drop", 109947495367955061579303056771406568970,
             150752989731518153418714358550350141059),
            ("dup", 228561065484113934279826187483925678548,
             339206066058622292142166964488598055777),
            ("reorder", 203020673664594464938604789521970056750,
             70889167487329414178492643507772910151),
            ("ackdrop", 201084845606809589165524950749288591505,
             151007780621564511651826128617486668795),
            ("backoff", 296106407482601748740296723370022548077,
             195667871122453446932559056926241515861),
        ]
    }},
}
OLD_AFTER = [[50.239418278206024, 2], [51.26342477667087, 7], [52.21359035351398, 8]]


def what_it_does_next(lk: FabricLink) -> list:
    after = [[at, e.seq] for at, e in lk.poll(50.0)]
    after.append([lk.plan_ack(env(7), 51.0), 7])
    return after + [[at, e.seq] for at, e in lk.send(env(8, time=52.0), 52.0)]


class TestRngState:
    def fresh(self) -> FabricLink:
        return FabricLink("c0", NetworkSpec(**OLD_NETWORK), RngRegistry(0))

    def test_a_link_unit_carries_draw_counts(self):
        lk = self.fresh()
        for i in range(3):
            lk.send(env(i, time=float(i)), float(i))
            lk.plan_ack(env(i), i + 0.5)
        lk.on_ack("c0", 1, 4.0)
        state = lk.state_dict()
        assert state["rng"]["streams"] == {}
        assert set(state["rng"]["draws"]) <= set(fabric_streams("c0"))
        # The same state as the older unit, and the same draws from it.
        assert {k: v for k, v in state.items() if k != "rng"} == {
            k: v for k, v in OLD_UNIT.items() if k != "rng"
        }
        resumed = self.fresh()
        resumed.load_state_dict(state)
        assert what_it_does_next(resumed) == what_it_does_next(lk) == OLD_AFTER

    def test_an_older_unit_with_full_generator_states_loads_and_draws_identically(self):
        lk = self.fresh()
        lk.load_state_dict(OLD_UNIT)
        assert lk.state_dict() == OLD_UNIT  # full states stay full states
        assert what_it_does_next(lk) == OLD_AFTER
