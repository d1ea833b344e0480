"""Threaded DYFLOW driver: the paper's architecture on wall-clock time.

The implementation in paper §3 runs the stages as threads communicating
through shared queues with JSON messages.  This driver does exactly
that — the *same* stage objects used by the simulated driver (Monitor
client/server, Decision, Arbitration-like planning) wired with
``threading`` and ``queue.Queue`` — and executes **real Python tasks**
(e.g. the numerical kernels in :mod:`repro.apps.kernels`) instead of
simulated ones.

Scope: this driver supports the policy actions that make sense for
in-process tasks — ADDCPU/RMCPU (restart the task with a different
worker count), STOP, START and RESTART — against a thread-based local
launcher.  It exists to demonstrate live orchestration end-to-end; the
paper-scale experiments run on the deterministic simulated driver.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.actions import ActionType, SuggestedAction
from repro.cluster.machine import MachinePerf
from repro.errors import DyflowError
from repro.fabric import BoundedShedQueue
from repro.journal import read_journal
from repro.runtime.core import RuntimeCore
from repro.runtime.options import RuntimeOptions
from repro.sim.rng import RngRegistry
from repro.staging.hub import DataHub
from repro.staging.serialization import Sample
from repro.telemetry.tracer import Tracer


@dataclass
class LiveTaskSpec:
    """A locally runnable task.

    ``work`` is called once per step as ``work(step, nworkers)`` and does
    the real compute; its wall duration is the task's loop time, streamed
    to the PACE-style sensors exactly like TAU would.
    """

    name: str
    work: Callable[[int, int], Any]
    nworkers: int = 1
    total_steps: int | None = None
    params: dict[str, Any] = field(default_factory=dict)


class _LiveInstance(threading.Thread):
    """One incarnation of a live task, running its step loop."""

    def __init__(self, runner: "ThreadedDyflow", spec: LiveTaskSpec, nworkers: int,
                 incarnation: int, start_step: int = 0) -> None:
        super().__init__(name=f"{spec.name}#{incarnation}", daemon=True)
        self.runner = runner
        self.spec = spec
        self.nworkers = nworkers
        self.incarnation = incarnation
        self.start_step = start_step
        self.stop_flag = threading.Event()
        self.steps_done = start_step
        self.exit_code: int | None = None
        # Resilience: wall-clock time of the last completed step (the
        # heartbeat) and an exit-code override stamped by the watchdog
        # when it abandons a hung instance.
        self.last_progress = runner.now()
        self.kill_code: int | None = None

    def run(self) -> None:
        hub = self.runner.hub
        channel = hub.channel(f"tau-{self.runner.workflow_id}-{self.spec.name}")
        if channel.closed:
            channel.reopen()
        step = self.start_step
        code = 0
        try:
            while not self.stop_flag.is_set():
                if self.spec.total_steps is not None and step >= self.spec.total_steps:
                    break
                t0 = time.perf_counter()
                self.spec.work(step, self.nworkers)
                looptime = time.perf_counter() - t0
                now = self.runner.now()
                with self.runner.hub_lock:
                    channel.put(
                        [
                            Sample(
                                time=now,
                                workflow_id=self.runner.workflow_id,
                                task=self.spec.name,
                                rank=0,
                                node_id="local",
                                var="looptime",
                                value=looptime,
                                step=step,
                            )
                        ],
                        now,
                    )
                step += 1
                self.steps_done = step
                self.last_progress = self.runner.now()
                self.runner._journal_append(
                    "task-checkpoint", task=self.spec.name, next_step=step,
                    incarnation=self.incarnation, nworkers=self.nworkers,
                )
        except Exception:  # noqa: BLE001 - a crashed task is a failed task
            code = 1
        if self.kill_code is not None:
            code = self.kill_code
        self.exit_code = code
        with self.runner.hub_lock:
            hub.filesystem.append_record(
                f"status/{self.runner.workflow_id}/{self.spec.name}",
                {"code": code, "time": self.runner.now(), "rank": 0,
                 "incarnation": self.incarnation},
                mtime=self.runner.now(),
            )
        self.runner._on_instance_exit(self)


class ThreadedDyflow(RuntimeCore):
    """Monitor/Decision/Arbitration/Actuation as wall-clock threads.

    The Monitor thread polls sensors and puts envelopes on the server
    queue; the Decision thread evaluates policies and emits suggestion
    batches; the Arbitration/Actuation thread applies them to the local
    launcher.  Message flow matches Fig. 2 of the paper.
    """

    def __init__(
        self,
        workflow_id: str,
        tasks: list[LiveTaskSpec],
        poll_interval: float = 0.2,
        warmup: float = 2.0,
        settle: float = 2.0,
        max_workers_total: int | None = None,
        rng: RngRegistry | None = None,
        tracer: Tracer | None = None,
        queue_capacity: int = 64,
        options: RuntimeOptions | None = None,
    ) -> None:
        self.specs = {t.name: t for t in tasks}
        if len(self.specs) != len(tasks):
            raise DyflowError("duplicate live task names")
        # Resilience mirror of the simulated launcher: same spec, same
        # named backoff stream, wall-clock watchdog + crash retry.
        resilience = options.resilience if options is not None else None
        if resilience is not None:
            resilience.validate()
        self._rng = rng if rng is not None else RngRegistry(0)
        # What now() and _health_aggregates() read.
        self._t0 = time.perf_counter()
        self._state_lock = threading.RLock()
        self._instances: dict[str, _LiveInstance] = {}
        self.retry_exhausted: set[str] = set()
        # One Monitor client on at most one FabricLink, pumped (like the
        # health engine) by the monitor loop on wall-clock time; this
        # driver makes no determinism promise.
        super().__init__(
            options, workflow_id=workflow_id, tasks=self.specs, hub=DataHub(),
            perf=MachinePerf(), rng=self._rng, resilience=resilience,
            client_ids=["live-client"], record_history=True, tracer=tracer,
        )
        self.hub.attach_tracer(self.tracer)
        self.poll_interval = poll_interval
        self.warmup = warmup
        self.settle = settle
        self.max_workers_total = max_workers_total
        self.hub_lock = threading.Lock()
        self._incarnations: dict[str, int] = {}
        # Bounded Decision -> Arbitration hand-off: when Arbitration
        # falls behind, the *oldest* suggestion batch is shed (newer
        # batches supersede it) instead of growing memory without bound.
        self._queue = BoundedShedQueue(queue_capacity)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._gate_until = 0.0
        self.applied_actions: list[tuple[float, str]] = []
        self.retry_policy = resilience.retry if resilience is not None else None
        self.watchdog_spec = resilience.watchdog if resilience is not None else None
        # Transit copies wait here until their delivery time passes — the
        # wall-clock analogue of the simulated driver's event queue.
        self._transit: list[tuple[float, Any]] = []   # (deliver_at, envelope)
        self._acks: list[tuple[float, Any]] = []      # (deliver_at, envelope)
        self._retries_used: dict[str, int] = {}
        self.retries: list[tuple[float, str, int]] = []       # (time, task, attempt)
        self.watchdog_kills: list[tuple[float, str]] = []     # (time, task)
        # Crash recovery: per-step task checkpoints go to a WAL so a
        # restarted runner can relaunch each mini-app at the step after
        # its last completed one instead of redoing finished work.
        self._journal_lock = threading.Lock()
        self._resume_steps: dict[str, int] = {}
        self._completed_tasks: set[str] = set()

    # -- time -----------------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._t0

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        if self.preflight != "off":
            from repro.lint.preflight import preflight_threaded

            preflight_threaded(self, self.preflight)
        self._open_journal(workflow=self.workflow_id, tasks=sorted(self.specs))
        self._gate_until = self.now() + self.warmup
        for name, spec in self.specs.items():
            if name in self._completed_tasks:
                continue  # finished before the crash; nothing to redo
            self._start_task(name, spec.nworkers)
        loops = [(self._monitor_loop, "monitor"), (self._decision_loop, "decision"),
                 (self._arbitration_loop, "arbitration")]
        if self.watchdog_spec is not None:
            loops.append((self._watchdog_loop, "watchdog"))
        for target, label in loops:
            t = threading.Thread(target=target, name=f"dyflow-{label}", daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every task and stage thread; mirrors DyflowOrchestrator.stop."""
        self._stop.set()
        with self._state_lock:
            for inst in list(self._instances.values()):
                inst.stop_flag.set()
        for inst in list(self._instances.values()):
            inst.join(timeout)
        for t in self._threads:
            t.join(timeout)
        with self._journal_lock:
            self._close_journal()
        self.finalize_telemetry()

    def wait_until_done(self, timeout: float) -> bool:
        """Block until every task finished (or *timeout* wall seconds)."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with self._state_lock:
                if not self._instances:
                    return True
            time.sleep(0.05)
        return False

    # -- crash recovery ----------------------------------------------------------
    def _journal_append(self, kind: str, **payload) -> None:
        """Thread-safe journal append; a closed/absent journal is a no-op."""
        with self._journal_lock:
            if self._journal is None or self._journal.closed:
                return
            self._journal.append(kind, **payload)

    def resume_from(self, journal_dir: str) -> "ThreadedDyflow":
        """Adopt a crashed runner's journal; call before :meth:`start`.

        Reads the latest ``task-checkpoint`` per task and arranges for
        each mini-app to relaunch at the step *after* its last completed
        one (checkpoint-restart, not recompute-from-zero).  Tasks whose
        checkpoints already reached ``total_steps`` are not relaunched at
        all.  Incarnation numbering continues past the journaled values,
        and the journal is reopened under the next fencing epoch.
        """
        state = read_journal(journal_dir)
        next_steps: dict[str, int] = {}
        incarnations: dict[str, int] = {}
        for rec in state.records:
            if rec["kind"] not in ("task-checkpoint", "task-restart"):
                continue
            task = rec["task"]
            incarnations[task] = max(incarnations.get(task, 0), int(rec.get("incarnation", 0)))
            if rec["kind"] == "task-checkpoint":
                next_steps[task] = int(rec["next_step"])
        self._resume_steps = dict(next_steps)
        for name, spec in self.specs.items():
            if spec.total_steps is not None and next_steps.get(name, 0) >= spec.total_steps:
                self._completed_tasks.add(name)
        self._incarnations = {t: i + 1 for t, i in incarnations.items()}
        self._reopen_journal(journal_dir, state)
        return self

    # -- task control ---------------------------------------------------------------
    def _start_task(self, name: str, nworkers: int) -> None:
        with self._state_lock:
            if name in self._instances:
                raise DyflowError(f"live task {name!r} already running")
            incarnation = self._incarnations.get(name, 0)
            self._incarnations[name] = incarnation + 1
            start_step = self._resume_steps.pop(name, 0)
            inst = _LiveInstance(
                self, self.specs[name], nworkers, incarnation, start_step=start_step
            )
            self._instances[name] = inst
            inst.start()
        self._journal_append(
            "task-restart", task=name, incarnation=incarnation,
            nworkers=nworkers, start_step=start_step,
        )

    def _stop_task(self, name: str, join_timeout: float = 30.0) -> None:
        with self._state_lock:
            inst = self._instances.get(name)
        if inst is None:
            return
        inst.stop_flag.set()
        inst.join(join_timeout)

    def _on_instance_exit(self, inst: _LiveInstance) -> None:
        name = inst.spec.name
        with self._state_lock:
            registered = self._instances.get(name) is inst
            if registered:
                del self._instances[name]
        if not registered:
            return  # abandoned by the watchdog; its replacement already runs
        code = inst.exit_code if inst.exit_code is not None else 0
        if code == 0:
            self._retries_used.pop(name, None)
            self.retry_exhausted.discard(name)
            return
        if inst.stop_flag.is_set() and inst.kill_code is None:
            return  # deliberate stop that raced a crash: never resurrect
        self._maybe_retry(name, inst.nworkers)

    # -- resilience -----------------------------------------------------------------
    def _maybe_retry(self, name: str, nworkers: int) -> None:
        """Schedule a backoff-delayed relaunch of a crashed/hung task."""
        policy = self.retry_policy
        if policy is None or self._stop.is_set():
            return
        used = self._retries_used.get(name, 0)
        if policy.exhausted(used):
            self.retry_exhausted.add(name)
            return
        self._retries_used[name] = used + 1
        delay = policy.delay(used, self._rng.stream("resilience:backoff"))
        self.retries.append((self.now(), name, used + 1))
        timer = threading.Timer(delay, self._retry_start, args=(name, nworkers))
        timer.daemon = True
        timer.start()

    def _retry_start(self, name: str, nworkers: int) -> None:
        if self._stop.is_set():
            return
        with self._state_lock:
            if name in self._instances:
                return
            self._start_task(name, nworkers)

    def _watchdog_loop(self) -> None:
        spec = self.watchdog_spec
        assert spec is not None
        while not self._stop.is_set():
            now = self.now()
            with self._state_lock:
                items = list(self._instances.items())
            for name, inst in items:
                if now - inst.last_progress <= spec.heartbeat_timeout:
                    continue
                # Hung: a blocked thread cannot be killed, so mark it and
                # abandon it — it is deregistered here, its eventual exit
                # is ignored, and a replacement goes through retry.
                inst.kill_code = spec.kill_code
                inst.stop_flag.set()
                with self._state_lock:
                    if self._instances.get(name) is not inst:
                        continue  # exited on its own in the meantime
                    del self._instances[name]
                self.watchdog_kills.append((now, name))
                self._maybe_retry(name, inst.nworkers)
            time.sleep(spec.poll)

    def nworkers(self, name: str) -> int:
        with self._state_lock:
            inst = self._instances.get(name)
            return inst.nworkers if inst else 0

    @property
    def suggestions_shed(self) -> int:
        """Suggestion batches dropped by the bounded Decision->Arbitration queue."""
        return self._queue.shed

    def _health_aggregates(self) -> dict[str, float]:
        with self._state_lock:
            running = len(self._instances)
            workers = sum(i.nworkers for i in self._instances.values())
        return {
            "tasks.running": float(running),
            "workers.total": float(workers),
            "retries.exhausted": float(len(self.retry_exhausted)),
        }

    # -- stage threads ----------------------------------------------------------------
    def _monitor_loop(self) -> None:
        client = self.clients[0]
        while not self._stop.is_set():
            with self.tracer.span("monitor.collect", "monitor"):
                with self.hub_lock:
                    envelopes = client.collect(self.now())
                if self.network is None:
                    for _lag, envelope in envelopes:
                        self.server.receive(envelope)  # thread-safe: decision.ingest is list ops
                else:
                    self._pump_fabric(envelopes)
            if self.health is not None:
                # Evaluate on the monitor thread so the health feed is
                # only ever touched by the thread that also polls it.
                self.health.tick(self.now())
            time.sleep(self.poll_interval)

    def _pump_fabric(self, envelopes) -> None:
        """One wall-clock pump of the lossy Monitor fabric.

        The link state machine hands back (deliver_at, envelope) copies;
        they wait in the pending lists until their delivery time passes.
        """
        (link,) = self.links.values()
        now = self.now()
        for lag, envelope in envelopes:
            self._transit.extend(link.send(envelope, now, lag=lag))
        self._transit.extend(link.poll(now))
        # Acks whose transit delay elapsed complete the retransmit cycle.
        due_acks = [(at, env) for at, env in self._acks if at <= now]
        self._acks = [(at, env) for at, env in self._acks if at > now]
        for _at, env in sorted(due_acks, key=lambda p: (p[0], p[1].sender, p[1].seq)):
            link.on_ack(env.sender, env.seq, now)
        # Deliver due data copies into the server's bounded ingress.
        due = [(at, env) for at, env in self._transit if at <= now]
        self._transit = [(at, env) for at, env in self._transit if at > now]
        for _at, env in sorted(due, key=lambda p: (p[0], p[1].sender, p[1].seq)):
            ack_at = self._offer(env, link, now)
            if ack_at is not None:
                self._acks.append((ack_at, env))
        self._pump_ingress(now)

    def _decision_loop(self) -> None:
        while not self._stop.is_set():
            suggestions = self.decision.gate(self.decision.tick(self.now()))
            if suggestions:
                self._queue.put(suggestions)
            time.sleep(self.poll_interval)

    def _arbitration_loop(self) -> None:
        while not self._stop.is_set():
            try:
                suggestions: list[SuggestedAction] = self._queue.get(timeout=self.poll_interval)
            except queue.Empty:
                continue
            if self.now() < self._gate_until:
                # Unlike periodic pace suggestions (which Decision will
                # re-emit), one-shot events such as failures must survive
                # the warmup/settle gate: park the batch and retry.
                time.sleep(self.poll_interval)
                self._queue.put(suggestions)
                continue
            with self.tracer.span("arbitration.apply", "arbitration", suggestions=len(suggestions)):
                applied = self._apply(suggestions)
            if applied:
                self._gate_until = self.now() + self.settle

    def _apply(self, suggestions: list[SuggestedAction]) -> bool:
        any_applied = False
        for s in suggestions:
            with self._state_lock:
                running = s.target in self._instances
                current = self.nworkers(s.target)
                # Instance threads delete themselves from _instances as
                # they exit: total the other tasks' workers under the lock.
                others = sum(i.nworkers for n, i in self._instances.items() if n != s.target)
            adjust = int(s.params.get("adjust-by", 1))
            applied = False
            if s.action == ActionType.ADDCPU and running:
                new = current + adjust
                if self.max_workers_total is not None:
                    new = min(new, self.max_workers_total - others)
                if new > current:
                    self._stop_task(s.target)
                    self._start_task(s.target, new)
                    applied = True
            elif s.action == ActionType.RMCPU and running:
                new = max(1, current - adjust)
                if new != current:
                    self._stop_task(s.target)
                    self._start_task(s.target, new)
                    applied = True
            elif s.action == ActionType.STOP and running:
                self._stop_task(s.target)
                applied = True
            elif s.action in (ActionType.START, ActionType.RESTART) and not running:
                self._start_task(s.target, self.specs[s.target].nworkers)
                applied = True
            if applied:
                any_applied = True
                self.applied_actions.append((self.now(), f"{s.action.value}:{s.target}"))
                if self.tracer.enabled:
                    self.tracer.add_span(
                        "actuation.apply", "actuation",
                        start=s.trigger_time, end=self.now(),
                        action=s.action.value, task=s.target,
                    )
                    self.tracer.metrics.counter("actuation.applied").inc()
        return any_applied
