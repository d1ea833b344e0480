"""Tests for the IterativeApp execution model on the sim kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import ConstantModel, CouplingRegistry, IterativeApp
from repro.apps.base import Signal, TaskContext
from repro.cluster.machine import MachinePerf
from repro.sim import RngRegistry, SimEngine
from repro.staging import DataHub


def make_ctx(engine, hub=None, coupling=None, task="T", nprocs=4, incarnation=0,
             tight_parents=(), perf=None):
    return TaskContext(
        engine=engine,
        hub=hub if hub is not None else DataHub(),
        coupling=coupling if coupling is not None else CouplingRegistry(),
        perf=perf if perf is not None else MachinePerf(),
        rng=RngRegistry(0).stream(f"t:{task}:{incarnation}"),
        workflow_id="WF",
        task=task,
        incarnation=incarnation,
        nprocs=nprocs,
        rank_nodes={r: f"n{r % 2}" for r in range(nprocs)},
        tight_parents=list(tight_parents),
    )


class TestBasicRun:
    def test_runs_total_steps_and_exits_zero(self):
        eng = SimEngine()
        ctx = make_ctx(eng)
        app = IterativeApp(ConstantModel(2.0), total_steps=5)
        code = eng.run_process(app.run(ctx))
        assert code == 0
        assert ctx.notes["last_step"] == 5
        assert ctx.notes["completed"] is True
        assert eng.now == pytest.approx(10.0)

    def test_run_steps_limits_one_invocation(self):
        eng = SimEngine()
        ctx = make_ctx(eng)
        app = IterativeApp(ConstantModel(1.0), total_steps=100, run_steps=10)
        code = eng.run_process(app.run(ctx))
        assert code == 0
        assert ctx.notes["last_step"] == 10
        assert ctx.notes["completed"] is False

    def test_speed_factor_scales_step_time(self):
        eng = SimEngine()
        ctx = make_ctx(eng, perf=MachinePerf(speed_factor=0.5))
        app = IterativeApp(ConstantModel(2.0), total_steps=3)
        eng.run_process(app.run(ctx))
        assert eng.now == pytest.approx(12.0)

    def test_output_every_writes_store_and_markers(self):
        eng = SimEngine()
        hub = DataHub()
        ctx = make_ctx(eng, hub=hub)
        app = IterativeApp(ConstantModel(1.0), total_steps=6, output_every=2)
        eng.run_process(app.run(ctx))
        assert hub.get_store("WF/T.bp").num_steps == 3
        assert len(hub.filesystem.scan("out/WF/T.out.*")) == 3

    def test_profiler_stream_produced(self):
        eng = SimEngine()
        hub = DataHub()
        ctx = make_ctx(eng, hub=hub)
        app = IterativeApp(ConstantModel(3.0), total_steps=4, rank_jitter=0.0)
        eng.run_process(app.run(ctx))
        ch = hub.get_channel("tau-WF-T")
        steps = ch.open_reader().drain()
        # capacity default 16 >= 4, all retained
        assert len(steps) == 4
        looptimes = [s.data[0].value for s in steps]
        assert looptimes[1:] == pytest.approx([3.0, 3.0, 3.0])

    def test_output_channel_closed_on_completion(self):
        eng = SimEngine()
        hub = DataHub()
        ctx = make_ctx(eng, hub=hub)
        app = IterativeApp(ConstantModel(1.0), total_steps=2)
        eng.run_process(app.run(ctx))
        assert hub.get_channel("data-WF-T").closed

    def test_channel_left_open_when_run_steps_exhausted(self):
        eng = SimEngine()
        hub = DataHub()
        ctx = make_ctx(eng, hub=hub)
        app = IterativeApp(ConstantModel(1.0), total_steps=10, run_steps=2)
        eng.run_process(app.run(ctx))
        assert not hub.get_channel("data-WF-T").closed


class TestCheckpointing:
    def test_checkpoint_saved_and_resumed(self):
        eng = SimEngine()
        hub = DataHub()
        ctx = make_ctx(eng, hub=hub)
        app = IterativeApp(ConstantModel(1.0), total_steps=100, run_steps=10,
                           checkpoint_every=4, resume_from_checkpoint=True)
        eng.run_process(app.run(ctx))
        assert hub.filesystem.read("cp/WF/T")["step"] == 8
        ctx2 = make_ctx(eng, hub=hub, incarnation=1)
        app2 = IterativeApp(ConstantModel(1.0), total_steps=100, run_steps=10,
                            checkpoint_every=4, resume_from_checkpoint=True)
        eng.run_process(app2.run(ctx2))
        assert ctx2.notes["first_step"] == 8
        assert ctx2.notes["last_step"] == 18

    def test_no_checkpoint_starts_at_zero(self):
        eng = SimEngine()
        ctx = make_ctx(eng)
        app = IterativeApp(ConstantModel(1.0), total_steps=3, resume_from_checkpoint=True)
        eng.run_process(app.run(ctx))
        assert ctx.notes["first_step"] == 0


class TestSignals:
    def test_graceful_stop_finishes_current_step(self):
        eng = SimEngine()
        hub = DataHub()
        ctx = make_ctx(eng, hub=hub)
        app = IterativeApp(ConstantModel(10.0), total_steps=100, output_every=1)
        proc = eng.process(app.run(ctx))
        eng.call_after(13.0, lambda: proc.interrupt(Signal.term()))
        eng.run()
        assert proc.value == 0
        # Interrupted during step 1 (10..20): it completes at t=20.
        assert eng.now == pytest.approx(20.0, abs=0.5)
        assert ctx.notes["last_step"] == 2
        assert len(hub.filesystem.scan("out/WF/T.out.*")) == 2

    def test_kill_exits_immediately_with_code(self):
        eng = SimEngine()
        ctx = make_ctx(eng)
        app = IterativeApp(ConstantModel(10.0), total_steps=100)
        proc = eng.process(app.run(ctx))
        exit_time = []
        proc.callbacks.append(lambda _ev: exit_time.append(eng.now))
        eng.call_after(13.0, lambda: proc.interrupt(Signal.kill(137)))
        eng.run()
        assert proc.value == 137
        assert exit_time == [pytest.approx(13.0)]

    def test_second_signal_during_graceful_kills(self):
        eng = SimEngine()
        ctx = make_ctx(eng)
        app = IterativeApp(ConstantModel(10.0), total_steps=100)
        proc = eng.process(app.run(ctx))
        exit_time = []
        proc.callbacks.append(lambda _ev: exit_time.append(eng.now))
        eng.call_after(13.0, lambda: proc.interrupt(Signal.term()))
        eng.call_after(15.0, lambda: proc.interrupt(Signal.kill(137)))
        eng.run()
        assert proc.value == 137
        assert exit_time == [pytest.approx(15.0)]

    def test_signal_while_waiting_for_input_exits_clean(self):
        eng = SimEngine()
        hub = DataHub()
        coupling = CouplingRegistry()
        ctx = make_ctx(eng, hub=hub, coupling=coupling, tight_parents=["P"])
        hub.channel("data-WF-P")  # exists but empty: consumer waits
        app = IterativeApp(ConstantModel(1.0))
        proc = eng.process(app.run(ctx))
        eng.call_after(5.0, lambda: proc.interrupt(Signal.term()))
        eng.run()
        assert proc.value == 0
        assert ctx.notes["last_step"] == 0


class TestCoupledPipelines:
    def test_consumer_paced_by_producer(self):
        eng = SimEngine()
        hub = DataHub()
        coupling = CouplingRegistry()
        pctx = make_ctx(eng, hub=hub, coupling=coupling, task="P")
        cctx = make_ctx(eng, hub=hub, coupling=coupling, task="C", tight_parents=["P"])
        producer = IterativeApp(ConstantModel(5.0), total_steps=6)
        consumer = IterativeApp(ConstantModel(1.0))
        p = eng.process(producer.run(pctx))
        c = eng.process(consumer.run(cctx))
        eng.run()
        assert p.value == 0 and c.value == 0
        assert cctx.notes["last_step"] == 6  # consumed everything, then EOS

    def test_producer_backpressured_by_slow_consumer(self):
        eng = SimEngine()
        hub = DataHub()
        coupling = CouplingRegistry(max_inflight=2)
        pctx = make_ctx(eng, hub=hub, coupling=coupling, task="P")
        cctx = make_ctx(eng, hub=hub, coupling=coupling, task="C", tight_parents=["P"])
        producer = IterativeApp(ConstantModel(1.0), total_steps=10)
        consumer = IterativeApp(ConstantModel(5.0))
        eng.process(producer.run(pctx))
        eng.process(consumer.run(cctx))
        eng.run()
        # Producer gated near the consumer's 5 s pace, not its own 1 s.
        assert eng.now > 40.0
        assert cctx.notes["last_step"] == 10

    def test_three_stage_chain(self):
        eng = SimEngine()
        hub = DataHub()
        coupling = CouplingRegistry()
        actx = make_ctx(eng, hub=hub, coupling=coupling, task="A")
        bctx = make_ctx(eng, hub=hub, coupling=coupling, task="B", tight_parents=["A"])
        cctx = make_ctx(eng, hub=hub, coupling=coupling, task="C", tight_parents=["B"])
        eng.process(IterativeApp(ConstantModel(1.0), total_steps=5).run(actx))
        eng.process(IterativeApp(ConstantModel(1.0)).run(bctx))
        eng.process(IterativeApp(ConstantModel(1.0)).run(cctx))
        eng.run()
        assert bctx.notes["last_step"] == 5
        assert cctx.notes["last_step"] == 5


class RecordingProfiler:
    def __init__(self):
        self.calls = []

    def emit_step(self, time, step, loop_times, extra_vars=None):
        self.calls.append((time, step, loop_times, extra_vars))


class TestEmitPaceBitIdentity:
    """``_emit_pace`` against the array arithmetic it replaced."""

    @staticmethod
    def _emit(nprocs, jitter, looptime, memory=0.0, step=3):
        ctx = make_ctx(SimEngine(), nprocs=nprocs)
        app = IterativeApp(ConstantModel(1.0), rank_jitter=jitter, profile_ranks=16,
                           memory_mb_per_rank=memory, memory_growth_mb_per_step=0.5)
        prof = RecordingProfiler()
        app._emit_pace(ctx, prof, step, looptime)
        (_time, _step, loop_times, extra_vars), = prof.calls
        return ctx, loop_times, extra_vars

    @given(st.integers(2, 40), st.floats(1e-6, 0.5), st.floats(0.0, 1e4),
           st.sampled_from([0.0, 512.0]))
    def test_jitter_draws_the_same_stream_and_the_same_floats(self, nprocs, jitter, looptime,
                                                               memory):
        ctx, loop_times, extra_vars = self._emit(nprocs, jitter, looptime, memory)
        nranks = min(nprocs, 16)
        ref_rng = make_ctx(SimEngine(), nprocs=nprocs).rng
        factors = 1.0 + jitter * ref_rng.random(nranks)
        assert ctx.rng.bit_generator.state == ref_rng.bit_generator.state
        want = {rank: looptime * float(factors[rank]) for rank in range(nranks)}
        assert repr(loop_times) == repr(want)
        if memory:
            base = memory + 0.5 * 3
            assert repr(extra_vars) == repr(
                {"rss_mb": {rank: base * float(factors[rank]) for rank in range(nranks)}})
        else:
            assert extra_vars is None

    @given(st.sampled_from([(1, 0.02), (8, 0.0), (8, -1.0), (1, 0.0)]), st.floats(0.0, 1e4))
    def test_no_jitter_or_one_rank_draws_nothing(self, shape, looptime):
        nprocs, jitter = shape
        ctx, loop_times, extra_vars = self._emit(nprocs, jitter, looptime, memory=512.0)
        assert ctx.rng.bit_generator.state == make_ctx(SimEngine(), nprocs=nprocs).rng \
            .bit_generator.state
        assert repr(loop_times) == repr({rank: looptime * 1.0 for rank in range(nprocs)})
        assert repr(extra_vars) == repr({"rss_mb": {rank: 513.5 for rank in range(nprocs)}})
