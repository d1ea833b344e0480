"""Threaded DYFLOW driver: the paper's architecture on wall-clock time.

The implementation in paper §3 runs the stages as threads communicating
through shared queues with JSON messages.  This driver does exactly
that with the *same* four stages the simulated driver runs (wired by
:class:`~repro.runtime.core.RuntimeCore`), over a
:class:`~repro.wms.live.LiveLauncher` that runs **real Python tasks**
(e.g. the kernels in :mod:`repro.apps.kernels`) as threads on one node
of ``max_workers_total`` cores.  Retry and node blame are the
launcher's; barriers, snapshots and the controller resume are
:class:`RuntimeCore`'s.  This driver makes no determinism promise; the
paper-scale experiments run on the simulated driver.
"""

from __future__ import annotations

import queue
import threading
import time

from repro.core.rules import ArbitrationRules
from repro.errors import DyflowError
from repro.fabric import BoundedShedQueue
from repro.runtime.core import RuntimeCore
from repro.runtime.options import RuntimeOptions
from repro.sim.rng import RngRegistry
from repro.telemetry.tracer import Tracer
from repro.util.jsonmsg import Envelope
from repro.wms.live import LiveLauncher, LiveTaskSpec


class ThreadedDyflow(RuntimeCore):
    """Monitor/Decision/Arbitration/Actuation as wall-clock threads.

    The Monitor thread feeds the server; the Decision thread hands
    suggestion batches to a bounded queue and writes the barrier; the
    Arbitration thread plans them every poll and actuates each plan
    through the live launcher (Fig. 2 of the paper).  With a watchdog a
    fourth thread scans for hung tasks.  Each stage round holds the
    launcher's lock; an op's waits do not.
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
        specs = {t.name: t for t in tasks}
        if len(specs) != len(tasks):
            raise DyflowError("duplicate live task names")
        self._t0 = time.perf_counter()
        self.poll_interval = poll_interval
        launcher = LiveLauncher(
            workflow_id, specs, max_workers_total, clock=self.now,
            rng=rng if rng is not None else RngRegistry(0),
            resilience=options.resilience if options is not None else None,
            poll_interval=poll_interval, on_step=self._checkpoint,
        )
        super().__init__(
            options, launcher=launcher, rules=ArbitrationRules(workflow_id),
            client_ids=["live-client"], record_history=True, tracer=tracer,
            warmup=warmup, settle=settle,
        )
        self.lock = launcher.lock
        # Bounded Decision -> Arbitration hand-off: when Arbitration
        # falls behind, the *oldest* suggestion batch is shed (newer
        # batches supersede it) instead of growing memory without bound.
        self._queue = BoundedShedQueue(queue_capacity)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        # (deliver_at, "data" | "ack", envelope) in fabric transit: the
        # wall-clock analogue of the simulated driver's event queue.
        self._transit: list[tuple[float, str, Envelope]] = []
        self._transit_revision = 0  # moves whenever _transit may have
        self._steps: dict[str, int] = {}  # task -> step after its last checkpoint
        self._resumed = False

    def now(self) -> float:
        return time.perf_counter() - self._t0

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        if self.preflight != "off":
            from repro.lint.preflight import run_preflight, spec_from_runtime

            spec = spec_from_runtime(self)
            run_preflight(self.preflight, spec, workflow=set(self.launcher.specs))
        self._open_journal(workflow=self.workflow_id, tasks=sorted(self.launcher.specs))
        self._running = True
        if not self._resumed:
            self._begin(self.now())
        self.launcher.launch_workflow()
        stages = [("monitor", self._every, (self.poll_interval, self._monitor_round)),
                  ("decision", self._every, (self.poll_interval, self._decision_round)),
                  ("arbitration", self._arbitration_loop, ())]
        if self.watchdog is not None:
            stages.append(("watchdog", self._every, (self.watchdog.spec.poll, self.watchdog.scan)))
        for label, target, args in stages:
            t = threading.Thread(target=target, args=args, name=f"dyflow-{label}", daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every task and stage thread; mirrors DyflowOrchestrator.stop."""
        self._stop.set()
        for thread in self.launcher.shutdown():
            thread.join(timeout)
        for t in self._threads:
            t.join(timeout)
        with self.lock:
            self._running = False
            self._close_journal()
        self.finalize_telemetry()

    def wait_until_done(self, timeout: float) -> bool:
        """Block until every task finished and no retry is pending (or
        *timeout* wall seconds)."""
        deadline = time.perf_counter() + timeout
        while not self.launcher.idle():
            if time.perf_counter() >= deadline:
                return False
            time.sleep(0.05)
        return True

    # -- crash recovery ----------------------------------------------------------
    def resume_from(self, journal_dir: str) -> "ThreadedDyflow":
        """Adopt a crashed runner's journal; call before :meth:`start`.

        The controller comes back as the simulated driver's does (with no
        barrier, the runner stopped before its first Decision round, as
        built); the clock continues from the last barrier and :meth:`start`
        skips the warmup.  Each mini-app relaunches at the step after its
        last checkpoint, a finished one not at all; an unfinished plan is
        driven first on the Arbitration thread.
        """
        js, t = self._resume_controller(journal_dir, barrier_required=False)
        b = js.barrier_state or {}
        for task, (next_step, incarnations) in b.get("tasks", {}).items():
            self._steps[task] = next_step
            self.launcher.record(task).incarnations = incarnations
        for rec in js.records:
            if rec["kind"] in ("task-checkpoint", "task-restart"):
                record = self.launcher.record(rec["task"])
                record.incarnations = max(record.incarnations, int(rec["incarnation"]) + 1)
            if rec["kind"] == "task-checkpoint":
                self._steps[rec["task"]] = int(rec["next_step"])
        self.launcher.resume_steps.update(self._steps)
        self._transit = [(at, kind, Envelope.from_json(env))
                         for at, kind, env in b.get("transit", [])]
        if t is not None:  # a journaled controller: its warmup is behind it
            self._t0 = time.perf_counter() - t
            self._resumed = True
        return self

    def _clock_units(self, units) -> None:
        """The fabric copies in transit, and each task's checkpoint."""
        units.update(
            ("transit",), self._transit_revision,
            lambda: [[at, kind, env.to_json()] for at, kind, env in self._transit],
        )
        progress = tuple((n, self._steps.get(n, 0), r.incarnations)  # small: its own revision
                         for n, r in self.launcher.records.items())
        units.update(("tasks",), progress, lambda: {n: [s, i] for n, s, i in progress})

    def _checkpoint(self, instance, next_step: int) -> None:
        """Per-step task checkpoint, so a restarted runner resumes there."""
        self._steps[instance.task] = next_step
        if self._journal is not None and not self._journal.closed:
            self._journal.append(
                "task-checkpoint", task=instance.task, next_step=next_step,
                incarnation=instance.incarnation, nworkers=instance.nprocs,
            )

    # -- stage threads ----------------------------------------------------------------
    def _every(self, interval: float, round_) -> None:
        """Run ``round_(now)`` under the lock every *interval* seconds."""
        while not self._stop.is_set():
            with self.lock:
                round_(self.now())
            self._stop.wait(interval)

    def _monitor_round(self, now: float) -> None:
        with self.tracer.span("monitor.collect", "monitor"):
            envelopes = self.clients[0].collect(now)
            if self.network is None:
                for _lag, envelope in envelopes:
                    self._receive(envelope)
            else:
                self._pump_fabric(envelopes, now)
        if self.health is not None:
            self.health.tick(now)

    def _pump_fabric(self, envelopes, now: float) -> None:
        """One wall-clock pump of the lossy Monitor fabric: the copies and
        acks the link hands back wait in ``_transit`` until they are due."""
        (link,) = self.links.values()
        self._transit_revision += 1
        sent = [c for lag, envelope in envelopes for c in link.send(envelope, now, lag=lag)]
        self._transit += [(at, "data", env) for at, env in [*sent, *link.poll(now)]]
        due = sorted((t for t in self._transit if t[0] <= now),
                     key=lambda t: (t[1], t[0], t[2].sender, t[2].seq))  # acks first
        self._transit = [t for t in self._transit if t[0] > now]
        for _at, kind, env in due:
            if kind == "ack":  # completes the retransmit cycle
                link.on_ack(env.sender, env.seq, now)
                continue
            ack_at = self._offer(env, link, now)  # into the server's bounded ingress
            if ack_at is not None:
                self._transit.append((ack_at, "ack", env))
        self._pump_ingress(now)

    def _decision_round(self, now: float) -> None:
        """One Decision round, then the barrier: a resume replays
        ``decision.tick`` at each barrier's time, the ticks that ran."""
        batch = self.decision.gate(self.decision.tick(now), now)
        if batch:
            self._hand_off(batch)
        self._journal_barrier(now)

    def _hand_off(self, batch) -> None:
        """Queue *batch* for Arbitration; a batch it sheds ends superseded."""
        shed = self._queue.put(batch)
        if shed is not None:
            self.arbitration.supersede(shed)

    def _arbitration_loop(self) -> None:
        if self._resumed_op is not None:  # the plan a crash interrupted first
            self._drive(self._resumed_op)
        while not self._stop.is_set():
            try:
                batch = self._queue.get(timeout=self.poll_interval)
            except queue.Empty:
                batch = []  # the waiting queue drains on an empty round too
            with self.lock:
                plan = self.arbitration.arbitrate(batch, self.now())
                if plan is not None:
                    self._log_plan(plan)
            if plan is not None:
                self._drive(self.actuation.execute(plan, on_done=self._on_plan_done))

    def _drive(self, op) -> None:
        """Run a plugin-op generator: its steps under the lock, its
        wall-clock waits outside it.  A stopping runner abandons it."""
        while not self._stop.is_set():
            with self.lock:
                try:
                    wait = next(op)
                except StopIteration:
                    return
            self._stop.wait(wait)
