"""Stochastic fault injection: replayability and fault-class behavior."""

from repro.resilience import (
    ChaosEngine,
    FaultModelSpec,
    HeartbeatWatchdog,
    ResilienceSpec,
    RetryPolicy,
    WatchdogSpec,
)
from repro.resilience.faults import TASK_CRASH_CODE
from repro.util.jsonmsg import Envelope
from repro.wms import TaskState

from tests.resilience.conftest import flaky_app_factory, make_sim, make_task


def run_chaos(seed, model, until=300.0, total_steps=500):
    eng, _m, sav = make_sim(
        [
            make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=total_steps)),
            make_task("B", flaky_app_factory(fail_incarnations=0, total_steps=total_steps)),
        ],
        resilience=ResilienceSpec(
            retry=RetryPolicy(max_retries=100, backoff_base=1.0, jitter=0.25)
        ),
        seed=seed,
    )
    chaos = ChaosEngine(sav, model)
    chaos.start()
    sav.launch_workflow()
    eng.run(until=until)
    chaos.stop()
    return sav, chaos


def fingerprint(sav, chaos):
    """Everything that must replay bit-identically under a fixed seed."""
    faults = [(e.time, e.kind, e.target) for e in chaos.history]
    records = {}
    for name in ("A", "B"):
        rec = sav.record(name)
        instances = list(rec.history) + ([rec.current] if rec.current else [])
        records[name] = (
            rec.incarnations,
            [(i.start_time, i.exit_code, i.kill_cause, tuple(i.resources.node_ids))
             for i in instances],
        )
    return faults, records


class TestChaosDeterminism:
    MODEL = FaultModelSpec(node_mtbf=80.0, node_repair_time=40.0, task_crash_mtbf=90.0)

    def test_fixed_seed_runs_are_bit_identical(self):
        a = fingerprint(*run_chaos(11, self.MODEL))
        b = fingerprint(*run_chaos(11, self.MODEL))
        assert a[0]  # chaos actually fired
        assert a == b

    def test_different_seeds_diverge(self):
        a = fingerprint(*run_chaos(11, self.MODEL))
        b = fingerprint(*run_chaos(12, self.MODEL))
        assert a != b


class TestFaultClasses:
    def test_task_crash_kills_with_crash_code_and_is_retried(self):
        sav, chaos = run_chaos(5, FaultModelSpec(task_crash_mtbf=40.0), until=300.0)
        crashes = [e for e in chaos.history if e.kind == "task-crash"]
        assert crashes
        victim = sav.record(crashes[0].target)
        assert victim.incarnations >= 2
        assert victim.history[0].exit_code == TASK_CRASH_CODE
        assert victim.history[0].kill_cause == "chaos"

    def test_node_crash_and_repair_cycle(self):
        sav, chaos = run_chaos(
            3, FaultModelSpec(node_mtbf=50.0, node_repair_time=30.0), until=400.0
        )
        crashes = [e for e in chaos.history if e.kind == "node-crash"]
        assert crashes
        kinds = [r.kind for r in chaos.injector.history]
        assert "failure" in kinds and "recovery" in kinds

    def test_hang_then_watchdog_recovers_the_task(self):
        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=40))],
            resilience=ResilienceSpec(
                retry=RetryPolicy(max_retries=5, backoff_base=1.0, jitter=0.0),
                watchdog=WatchdogSpec(heartbeat_timeout=6.0, poll=1.0),
            ),
            seed=2,
        )
        chaos = ChaosEngine(sav, FaultModelSpec(task_hang_mtbf=15.0))
        dog = HeartbeatWatchdog(sav, sav.resilience.watchdog)
        chaos.start()
        dog.start()
        sav.launch_workflow()
        eng.run(until=80.0)
        chaos.stop()  # stop injecting so the restart can finish
        eng.run(until=500.0)
        hangs = [e for e in chaos.history if e.kind == "task-hang"]
        assert hangs and hangs[0].target == "A"
        rec = sav.record("A")
        assert dog.kills  # the watchdog caught the injected hang
        assert rec.current.state == TaskState.COMPLETED

    def test_msg_drop_stream_is_deterministic(self):
        def drops(seed):
            eng, _m, sav = make_sim(
                [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=5))],
                seed=seed,
            )
            chaos = ChaosEngine(sav, FaultModelSpec(msg_drop_prob=0.3))
            pattern = [
                chaos.drop_envelope(Envelope("STATUS", "A", seq, float(seq), {}))
                for seq in range(200)
            ]
            return pattern, chaos.dropped_envelopes

        p1, n1 = drops(9)
        p2, n2 = drops(9)
        assert p1 == p2 and n1 == n2
        assert 0 < n1 < 200
        assert n1 == sum(p1)

    def test_stage_drop_loses_steps_in_transit(self):
        def run(seed):
            eng, _m, sav = make_sim(
                [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=5))],
                seed=seed,
            )
            chaos = ChaosEngine(sav, FaultModelSpec(stage_drop_prob=0.3))
            chaos.start()
            # Created after start(): the on_new_channel hook covers it.  Big
            # capacity so the buffer's own DROP_OLDEST eviction stays out of
            # the accounting.
            ch = sav.hub.channel("stage", capacity=200)
            for i in range(100):
                ch.put({"i": i}, float(i))
            reader = ch.open_reader()
            got = len(reader.drain())
            return got, ch.dropped_in_transit, len(chaos.history)

        got, dropped, events = run(4)
        assert got + dropped == 100
        assert 0 < dropped < 100
        assert events == dropped  # every loss leaves a FaultEvent
        assert run(4) == (got, dropped, events)  # fixed seed replays

    def test_stage_drop_stops_with_the_engine(self):
        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=5))]
        )
        chaos = ChaosEngine(sav, FaultModelSpec(stage_drop_prob=0.9))
        chaos.start()
        ch = sav.hub.channel("stage")
        chaos.stop()
        for i in range(50):
            ch.put({"i": i}, float(i))
        assert ch.dropped_in_transit == 0  # filter goes inert on stop

    def test_msg_drop_disabled_by_default(self):
        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=5))]
        )
        chaos = ChaosEngine(sav, FaultModelSpec())
        assert not chaos.drop_envelope(Envelope("STATUS", "A", 0, 0.0, {}))
        assert chaos.dropped_envelopes == 0


class TestChaosStateRoundTrip:
    """state_dict/load_state_dict: the crash-recovery handover contract."""

    MODEL = FaultModelSpec(node_mtbf=80.0, node_repair_time=40.0, task_crash_mtbf=90.0)

    def run_with_handover(self, seed, handover_at=None, until=300.0):
        """Optionally hand the chaos role to a fresh engine mid-run."""
        eng, _m, sav = make_sim(
            [
                make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=500)),
                make_task("B", flaky_app_factory(fail_incarnations=0, total_steps=500)),
            ],
            resilience=ResilienceSpec(
                retry=RetryPolicy(max_retries=100, backoff_base=1.0, jitter=0.25)
            ),
            seed=seed,
        )
        chaos = ChaosEngine(sav, self.MODEL)
        chaos.start()
        sav.launch_workflow()
        if handover_at is not None:
            eng.run(until=handover_at)
            state = chaos.state_dict()
            chaos.suspend()  # the crashed controller's engine goes dark
            successor = ChaosEngine(sav, self.MODEL)
            successor.load_state_dict(state)
            chaos = successor
        eng.run(until=until)
        chaos.stop()
        return sav, chaos

    def test_handover_replays_the_uninterrupted_fault_sequence(self):
        plain = fingerprint(*self.run_with_handover(11))
        handed = fingerprint(*self.run_with_handover(11, handover_at=150.0))
        assert plain[0]  # faults actually fired on both sides of 150 s
        assert any(t > 150.0 for t, _k, _tgt in plain[0])
        assert handed == plain

    def test_state_dict_captures_rng_and_pending_fires(self):
        _sav, chaos = self.run_with_handover(7, until=120.0)
        state = chaos.state_dict()
        assert state["running"] is False  # stop() was called
        assert "chaos:node-crash" in state["rng"]["streams"]
        assert "chaos:task-crash" in state["rng"]["streams"]
        # The fault history is not chaos state: it is the launcher log's
        # chaos points, which a successor engine reads as its own.
        assert "history" not in state and chaos.history
        successor = ChaosEngine(_sav, self.MODEL)
        successor.load_state_dict({**state, "history": [[0.0, "msg-drop", "x"]]})  # older
        assert successor.history == chaos.history

    def test_suspended_engine_never_fires_again(self):
        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=500))],
            resilience=ResilienceSpec(
                retry=RetryPolicy(max_retries=100, backoff_base=1.0, jitter=0.0)
            ),
            seed=1,
        )
        chaos = ChaosEngine(sav, FaultModelSpec(task_crash_mtbf=20.0))
        chaos.start()
        sav.launch_workflow()
        eng.run(until=50.0)
        fired_before = len(chaos.history)
        assert fired_before
        chaos.suspend()
        eng.run(until=300.0)
        assert len(chaos.history) == fired_before
