"""Task execution model: contexts, signals, and the iterative-app loop.

Every workflow task in the paper — simulations and analyses alike — is an
iterative code: it repeatedly acquires input, computes a step, publishes
output, and occasionally writes files/checkpoints.  :class:`IterativeApp`
implements that loop on the simulation kernel with the semantics the
paper's measurements depend on:

* **graceful termination** — on a stop signal the task finishes its
  current timestep before exiting ("approximately 97% of the response
  time was spent waiting for tasks to terminate after receiving the
  signal", §4.6);
* **tight coupling** — input steps are consumed from the parent's staging
  stream, and producers stall under backpressure when consumers lag
  (the under-provisioning dynamics of §4.4);
* **checkpoint/restart** — periodic checkpoints let a restarted instance
  resume from the last saved step (the §4.5 resilience experiment);
* **profiler emission** — per-step loop times stream out through the
  TAU-like profiler so PACE sensors observe the task's true pace,
  including coupling stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.apps.coupling import CouplingRegistry
from repro.apps.scaling import StepTimeModel
from repro.cluster.machine import MachinePerf
from repro.errors import CheckpointError
from repro.profiler.counters import CounterModel
from repro.profiler.instrument import TaskProfiler
from repro.sim.engine import SimEngine
from repro.sim.events import Interrupt
from repro.staging.hub import DataHub
from repro.staging.stream import StreamReader

if TYPE_CHECKING:  # pragma: no cover
    from repro.staging.stream import StreamChannel


@dataclass(frozen=True)
class Signal:
    """A signal delivered to a running task via process interrupt.

    ``kind`` is ``"term"`` (graceful stop: finish the current timestep)
    or ``"kill"`` (immediate death with ``code``, e.g. 137 when a node
    dies under the task).
    """

    kind: str = "term"
    code: int = 143

    @classmethod
    def term(cls) -> "Signal":
        return cls("term", 143)

    @classmethod
    def kill(cls, code: int = 137) -> "Signal":
        return cls("kill", code)


def _as_signal(cause: Any) -> Signal:
    return cause if isinstance(cause, Signal) else Signal.term()


class _HardKill(Exception):
    """Internal: the task dies immediately with this exit code."""

    def __init__(self, code: int) -> None:
        super().__init__(code)
        self.code = code


class AppExit(Exception):
    """An app may raise this to exit deliberately with a specific code."""

    def __init__(self, code: int, reason: str = "") -> None:
        super().__init__(code, reason)
        self.code = code
        self.reason = reason


@dataclass
class TaskContext:
    """Everything a running task instance can see of its environment.

    Built by the launcher for each task incarnation.
    """

    engine: SimEngine
    hub: DataHub
    coupling: CouplingRegistry
    perf: MachinePerf
    rng: np.random.Generator
    workflow_id: str
    task: str
    incarnation: int
    nprocs: int
    rank_nodes: dict[int, str]
    tight_parents: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)
    poll_interval: float = 0.25
    counters: CounterModel | None = None
    notes: dict[str, Any] = field(default_factory=dict)
    # In-place reconfiguration mailbox (paper §6 extension): Actuation
    # delivers parameter updates here; the app applies them between steps.
    control: list[dict[str, Any]] = field(default_factory=list)
    # Resilience hooks: the launcher points heartbeat_cb at the task
    # instance so the watchdog sees per-step liveness; the chaos engine
    # flips hang_injected to freeze the app without killing it.
    heartbeat_cb: Callable[[float], None] | None = None
    hang_injected: bool = False

    # -- naming conventions shared with the Monitor stage -----------------------
    def profiler_channel_name(self, task: str | None = None) -> str:
        return f"tau-{self.workflow_id}-{task or self.task}"

    def data_channel_name(self, task: str | None = None) -> str:
        return f"data-{self.workflow_id}-{task or self.task}"

    def output_store_name(self) -> str:
        return f"{self.workflow_id}/{self.task}.bp"

    def checkpoint_path(self) -> str:
        return f"cp/{self.workflow_id}/{self.task}"

    # -- endpoints ---------------------------------------------------------------
    def make_profiler(self) -> TaskProfiler:
        ch = self.hub.channel(self.profiler_channel_name())
        if ch.closed:
            ch.reopen()
        return TaskProfiler(
            workflow_id=self.workflow_id,
            task=self.task,
            channel=ch,
            rank_nodes=self.rank_nodes,
            counters=self.counters,
        )

    def output_channel(self) -> "StreamChannel":
        ch = self.hub.channel(self.data_channel_name())
        if ch.closed:
            ch.reopen()
        return ch

    def open_input(self, parent: str) -> StreamReader:
        """Reader on the parent's data stream.

        Restarted instances resume from the newest staged step — the
        paper's "losing timestep information when the tasks reset".
        """
        reader = self.hub.channel(self.data_channel_name(parent)).open_reader(
            f"{self.task}#{self.incarnation}"
        )
        if self.incarnation > 0:
            reader.seek_latest()
        return reader

    # -- checkpointing -------------------------------------------------------------
    def save_checkpoint(self, step: int, payload: Any = None) -> None:
        self.hub.filesystem.write(
            self.checkpoint_path(), {"step": step, "payload": payload}, mtime=self.engine.now
        )

    def load_checkpoint(self) -> dict[str, Any] | None:
        fs = self.hub.filesystem
        if not fs.exists(self.checkpoint_path()):
            return None
        data = fs.read(self.checkpoint_path())
        if not isinstance(data, dict) or "step" not in data:
            raise CheckpointError(f"corrupt checkpoint at {self.checkpoint_path()}")
        return data

    def note(self, key: str, value: Any) -> None:
        """Attach run metadata, surfaced on the task instance afterwards."""
        self.notes[key] = value

    # -- resilience hooks ----------------------------------------------------------
    def heartbeat(self) -> None:
        """Report liveness at a completed step.

        For custom app loops; :meth:`IterativeApp.run` reads
        ``heartbeat_cb`` once per incarnation and calls it directly.
        """
        if self.heartbeat_cb is not None:
            self.heartbeat_cb(self.engine.now)

    def inject_hang(self) -> None:
        """Fault injection: freeze the task before its next step."""
        self.hang_injected = True

    # -- in-place reconfiguration (paper §6 extension) ---------------------------
    def deliver_control(self, updates: dict[str, Any]) -> None:
        """Queue a parameter update for the running task (RECONFIG)."""
        self.control.append(dict(updates))

    def drain_control(self) -> dict[str, Any]:
        """Merge and clear pending control updates; applies them to params."""
        merged: dict[str, Any] = {}
        while self.control:
            merged.update(self.control.pop(0))
        if merged:
            self.params.update(merged)
        return merged


class IterativeApp:
    """A configurable iterative application model.

    Args:
        step_model: per-step compute-time model (Summit-reference seconds;
            the machine's ``speed_factor`` is applied at runtime).
        total_steps: steps after which the *experiment* is complete
            (persists across restarts); None = run until input EOS.
        run_steps: steps per invocation before a clean exit (the XGC codes
            run 100 timesteps per run, §4.3); None = unlimited.
        output_every: write a science-output step (store + disk marker)
            every k steps; 0 disables.
        publish_every: publish a data step to the in-situ stream every k
            steps (1 = every step; 0 = never).  LAMMPS publishes every
            10th step — Table 3 pairs 1000 simulation steps with 100
            analysis steps.
        checkpoint_every: save a checkpoint every k steps; 0 disables.
        resume_from_checkpoint: start from the last checkpoint if present.
        noise_cv: coefficient of variation of step-time noise.
        rank_jitter: per-rank relative spread of reported loop times (the
            MAX group-by reduction needs rank-level variation to matter).
        close_output_on_complete: close the data channel when total_steps
            is reached so downstream consumers see end-of-stream.
        on_step: optional hook ``f(ctx, step)`` called after each step.
        start_step_fn: optional hook ``f(ctx) -> int`` overriding the
            start step (used by XGC's restart-script emulation).
        memory_mb_per_rank: when set, each profiler step also carries a
            per-rank ``rss_mb`` variable (base + a slow linear growth) —
            the paper's §2.1 example of one measurement consumed at two
            granularities (per node-task and per task).
        memory_growth_mb_per_step: linear RSS growth per step (models the
            accumulating buffers that make memory policies interesting).
    """

    def __init__(
        self,
        step_model: StepTimeModel,
        total_steps: int | None = None,
        run_steps: int | None = None,
        output_every: int = 0,
        publish_every: int = 1,
        checkpoint_every: int = 0,
        resume_from_checkpoint: bool = False,
        noise_cv: float = 0.0,
        rank_jitter: float = 0.02,
        close_output_on_complete: bool = True,
        on_step: Callable[[TaskContext, int], None] | None = None,
        start_step_fn: Callable[[TaskContext], int] | None = None,
        profile_ranks: int = 16,
        memory_mb_per_rank: float = 0.0,
        memory_growth_mb_per_step: float = 0.0,
    ) -> None:
        self.step_model = step_model
        self.total_steps = total_steps
        self.run_steps = run_steps
        self.output_every = output_every
        self.publish_every = publish_every
        self.checkpoint_every = checkpoint_every
        self.resume_from_checkpoint = resume_from_checkpoint
        self.noise_cv = noise_cv
        self.rank_jitter = rank_jitter
        self.close_output_on_complete = close_output_on_complete
        self.on_step = on_step
        self.start_step_fn = start_step_fn
        self.profile_ranks = profile_ranks
        self.memory_mb_per_rank = memory_mb_per_rank
        self.memory_growth_mb_per_step = memory_growth_mb_per_step

    # -- hooks (overridable) ------------------------------------------------------
    def start_step(self, ctx: TaskContext) -> int:
        """Which step this incarnation starts from.

        ``resume-from-checkpoint`` in the task parameters overrides the
        constructor flag, so the resilience layer can make a *restarted*
        incarnation resume from its last completed checkpoint without
        rebuilding the app.
        """
        if self.start_step_fn is not None:
            return self.start_step_fn(ctx)
        resume = bool(ctx.params.get("resume-from-checkpoint", self.resume_from_checkpoint))
        if resume:
            cp = ctx.load_checkpoint()
            if cp is not None:
                return int(cp["step"])
        return 0

    def step_time(self, ctx: TaskContext, step: int) -> float:
        """Wall seconds of compute for *step* on this machine, this run.

        ``step-scale`` in the task parameters rescales the work per step —
        the hook RECONFIG uses for in-place pace control (e.g. the science
        code lowering its analysis resolution instead of being restarted).
        """
        t = self.step_model.sample(ctx.nprocs, step, ctx.rng, self.noise_cv)
        scale = float(ctx.params.get("step-scale", 1.0))
        return t * scale / ctx.perf.speed_factor

    def write_output(self, ctx: TaskContext, step: int) -> None:
        """Science output: a store step plus a per-step marker file."""
        store = ctx.hub.store(ctx.output_store_name())
        store.write_step(ctx.engine.now, step=step, nsteps=step + 1)
        ctx.hub.filesystem.write(
            f"out/{ctx.workflow_id}/{ctx.task}.out.{step}",
            {"step": step},
            mtime=ctx.engine.now,
            step=step,
        )

    # -- the main loop ----------------------------------------------------------------
    def run(self, ctx: TaskContext):
        """Generator executed as the task's simulated process.

        Returns the exit code.
        """
        eng = ctx.engine
        step = self.start_step(ctx)
        first_step = step
        profiler = ctx.make_profiler()
        out_ch = ctx.output_channel()
        readers = {p: ctx.open_input(p) for p in ctx.tight_parents}
        for parent in ctx.tight_parents:
            ctx.coupling.register_consumer(parent, ctx.task)
        last_complete = eng.now
        steps_this_run = 0
        code = 0
        graceful_stop = False
        input_eos = False
        # The resilience layer may override the checkpoint cadence via
        # task parameters (the XML <resilience><checkpoint> knob).
        checkpoint_every = int(ctx.params.get("checkpoint-every", self.checkpoint_every))
        # Fixed for the life of one incarnation, read once: the loop below
        # runs once per simulated application step.
        total_steps, run_steps = self.total_steps, self.run_steps
        publish_every, output_every = self.publish_every, self.output_every
        on_step, heartbeat_cb = self.on_step, ctx.heartbeat_cb
        coupling, task = ctx.coupling, ctx.task
        try:
            while True:
                if ctx.hang_injected:
                    # Injected hang: hold resources, make no progress, emit
                    # nothing — exactly what the watchdog exists to catch.
                    # Only a (kill) interrupt gets the task out of here.
                    yield eng.timeout(ctx.poll_interval)
                    continue
                if total_steps is not None and step >= total_steps:
                    break
                if run_steps is not None and steps_this_run >= run_steps:
                    break
                # 1. acquire one step of input from every tight parent
                consumed: dict[str, int] = {}
                for parent, reader in readers.items():
                    record = yield from self._await_input(ctx, reader)
                    if record is None:
                        input_eos = True
                        break
                    consumed[parent] = record.step
                if input_eos:
                    break
                if ctx.control:
                    reconfigured = ctx.drain_control()
                    if reconfigured:
                        ctx.note("last_reconfig", dict(reconfigured))
                if steps_this_run == 0:
                    # TAU times main-loop iterations: the first iteration
                    # starts once input is connected, not at process spawn
                    # — launch/connection cost must not pollute the PACE
                    # metric with a one-off spike.
                    last_complete = max(last_complete, eng.now - ctx.poll_interval)
                # 2. compute the step (graceful-interrupt aware)
                dt = self.step_time(ctx, step)
                graceful_stop = yield from self._compute(ctx, dt)
                # 3. end-of-step bookkeeping (runs even when stopping)
                if publish_every and (step + 1) % publish_every == 0:
                    yield from self._publish(ctx, out_ch, step, skip_flow_control=graceful_stop)
                for parent, in_step in consumed.items():
                    coupling.mark_consumed(parent, task, in_step)
                if output_every and (step + 1) % output_every == 0:
                    self.write_output(ctx, step)
                if checkpoint_every and (step + 1) % checkpoint_every == 0:
                    ctx.save_checkpoint(step + 1)
                now = eng.now
                self._emit_pace(ctx, profiler, step, now - last_complete)
                last_complete = now
                if heartbeat_cb is not None:
                    heartbeat_cb(now)
                if on_step is not None:
                    on_step(ctx, step)
                step += 1
                steps_this_run += 1
                if graceful_stop:
                    break
        except _HardKill as k:
            code = k.code
        except AppExit as e:
            code = e.code
        except Interrupt as i:
            # Signal while waiting (input/flow control): nothing half-done.
            sig = _as_signal(i.cause)
            code = sig.code if sig.kind == "kill" else 0
        finally:
            for parent in ctx.tight_parents:
                ctx.coupling.deregister_consumer(parent, ctx.task)
            ctx.note("last_step", step)
            ctx.note("steps_this_run", steps_this_run)
            ctx.note("first_step", first_step)
        completed = self.total_steps is not None and step >= self.total_steps
        ctx.note("completed", completed or input_eos)
        # Propagate end-of-stream downstream: a producer that finished its
        # work — or ran out of input itself — closes its data channel so
        # tight consumers drain and exit instead of waiting forever.
        if (completed or input_eos) and self.close_output_on_complete and not out_ch.closed:
            out_ch.close()
        return code

    # -- loop pieces ---------------------------------------------------------------------
    def _await_input(self, ctx: TaskContext, reader: StreamReader):
        """Poll the parent stream until a step arrives (or EOS / signal)."""
        while True:
            record = reader.try_next()
            if record is not None:
                return record
            if reader.at_eos():
                return None
            yield ctx.engine.timeout(ctx.poll_interval)

    def _compute(self, ctx: TaskContext, dt: float):
        """Run the step's compute; returns True if a graceful stop arrived.

        A ``term`` signal mid-compute lets the step finish (the dominant
        cost in the paper's response times); a second signal or a ``kill``
        aborts immediately.
        """
        t0 = ctx.engine.now
        try:
            yield ctx.engine.timeout(dt)
            return False
        except Interrupt as i:
            sig = _as_signal(i.cause)
            if sig.kind == "kill":
                raise _HardKill(sig.code) from None
            remaining = dt - (ctx.engine.now - t0)
            if remaining > 0:
                try:
                    yield ctx.engine.timeout(remaining)
                except Interrupt as i2:
                    sig2 = _as_signal(i2.cause)
                    raise _HardKill(sig2.code if sig2.kind == "kill" else 143) from None
            return True

    def _publish(self, ctx: TaskContext, out_ch, step: int, skip_flow_control: bool):
        """Publish the step's data under coupling backpressure.

        Coupling bookkeeping uses *channel* step indices (which keep
        counting across task restarts) so producers and consumers agree on
        progress even after one side resets its own step counter.
        """
        if not skip_flow_control:
            while not ctx.coupling.can_publish(ctx.task, out_ch.next_step):
                yield ctx.engine.timeout(ctx.poll_interval)
        if out_ch.closed:
            out_ch.reopen()
        idx = out_ch.put({"task": ctx.task, "step": step}, ctx.engine.now)
        ctx.coupling.mark_produced(ctx.task, idx)

    def _emit_pace(self, ctx: TaskContext, profiler: TaskProfiler, step: int, looptime: float) -> None:
        """Stream per-rank loop times (a bounded rank sample at scale).

        Real TAU emits one record per rank; for 1500-process LAMMPS runs
        that volume adds nothing to the MAX/AVG reductions the sensors
        compute, so emission is capped at ``profile_ranks`` ranks.
        """
        nranks = min(ctx.nprocs, self.profile_ranks) if self.profile_ranks else ctx.nprocs
        jitter = self.rank_jitter
        if jitter > 0 and nranks > 1:
            factors = (1.0 + jitter * ctx.rng.random(nranks)).tolist()
        else:
            factors = [1.0] * nranks
        loop_times = {rank: looptime * f for rank, f in enumerate(factors)}
        extra_vars = None
        if self.memory_mb_per_rank > 0:
            base = self.memory_mb_per_rank + self.memory_growth_mb_per_step * step
            extra_vars = {"rss_mb": {rank: base * f for rank, f in enumerate(factors)}}
        profiler.emit_step(ctx.engine.now, step, loop_times, extra_vars=extra_vars)
