"""The Savanna-like workflow runtime.

Savanna "runs on launch/service cluster nodes, communicates with the
cluster scheduler, allocates the required resources, and spawns the
workflow tasks on the allocated resources" (paper §3).  This class plays
that role on the simulation kernel and exposes the **actuation plugin**:
the low-level operations DYFLOW's Actuation stage invokes
(``start_task_with_resources``, ``signal_*_task``, ``stop_task``,
``request_resources``, ``release_resources``, ``get_resource_status``).

Operations that take time (launching, signalling, waiting for graceful
termination) are generators meant to be driven from a simulated process
via ``yield from``.
"""

from __future__ import annotations

from typing import Any, Callable


from repro.apps.base import Signal, TaskContext
from repro.apps.coupling import CouplingRegistry
from repro.cluster.allocation import Allocation, ResourceSet
from repro.cluster.resource_manager import ResourceManager
from repro.errors import AllocationError, LaunchError
from repro.profiler.counters import CounterModel
from repro.resilience.quarantine import NodeQuarantine
from repro.resilience.spec import ResilienceSpec
from repro.sim.engine import SimEngine
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.staging.hub import DataHub
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.wms.spec import WorkflowSpec
from repro.wms.task import TaskInstance, TaskRecord, TaskState

TaskListener = Callable[[TaskInstance], None]

# Kill causes that are deliberate orchestration, not faults: they never
# feed the retry machinery or the node circuit breaker.
_DELIBERATE_KILLS = ("orchestrated", "walltime")


class Savanna:
    """Workflow runtime over one allocation."""

    def __init__(
        self,
        engine: SimEngine,
        workflow: WorkflowSpec,
        allocation: Allocation,
        hub: DataHub | None = None,
        trace: TraceRecorder | None = None,
        rng: RngRegistry | None = None,
        coupling: CouplingRegistry | None = None,
        poll_interval: float = 0.25,
        counters: CounterModel | None = None,
        resilience: ResilienceSpec | None = None,
    ) -> None:
        self.engine = engine
        self.workflow = workflow
        self.allocation = allocation
        self.machine = allocation.machine
        self.perf = allocation.machine.perf
        self.hub = hub if hub is not None else DataHub()
        self.trace = trace if trace is not None else TraceRecorder()
        self.rng = rng if rng is not None else RngRegistry(0)
        self.coupling = coupling if coupling is not None else CouplingRegistry()
        self.poll_interval = poll_interval
        self.counters = counters
        self.rm = ResourceManager(allocation)
        self.records: dict[str, TaskRecord] = {
            name: TaskRecord(spec=spec) for name, spec in workflow.tasks.items()
        }
        self._start_listeners: list[TaskListener] = []
        self._end_listeners: list[TaskListener] = []
        self.tracer: Tracer = NULL_TRACER
        self.resilience: ResilienceSpec | None = None
        self.retry_policy = None
        self.checkpoint_spec = None
        self.quarantine: NodeQuarantine | None = None
        self.configure_resilience(resilience)

    # -- resilience configuration -------------------------------------------------
    def configure_resilience(self, spec: ResilienceSpec | None) -> None:
        """Install (or clear) the recovery layer: retry, quarantine, checkpoint.

        Called from the constructor and by the XML bootstrap when the
        spec carries a ``<resilience>`` element.  The watchdog and the
        fault model live with the orchestrator/chaos engine; the pieces
        the *launcher* owns are retry/backoff, the node circuit breaker,
        and checkpoint-cadence injection into task parameters.

        Re-applying the spec already in force is a no-op: a crash-resumed
        orchestrator re-runs its bootstrap against the live launcher, and
        replacing the quarantine would silently amnesty every blamed node.
        """
        if spec is not None and spec == self.resilience:
            return
        if spec is not None:
            spec.validate()
        self.resilience = spec
        self.retry_policy = spec.retry if spec is not None else None
        self.checkpoint_spec = spec.checkpoint if spec is not None else None
        if spec is not None and spec.quarantine is not None:
            self.quarantine = NodeQuarantine(spec.quarantine, clock=lambda: self.engine.now)
        else:
            self.quarantine = None
        self.rm.quarantine = self.quarantine

    def attach_tracer(self, tracer: Tracer) -> None:
        """Install the run's telemetry tracer on the launcher and its hub."""
        self.tracer = tracer
        self.hub.attach_tracer(tracer)

    # -- listeners (the Monitor stage subscribes here) ---------------------------
    def subscribe_start(self, cb: TaskListener) -> None:
        self._start_listeners.append(cb)

    def subscribe_end(self, cb: TaskListener) -> None:
        self._end_listeners.append(cb)

    def unsubscribe_start(self, cb: TaskListener) -> None:
        """Detach a start listener (crashed orchestrators must not leak)."""
        if cb in self._start_listeners:
            self._start_listeners.remove(cb)

    # -- queries ------------------------------------------------------------------
    def record(self, name: str) -> TaskRecord:
        rec = self.records.get(name)
        if rec is None:
            raise LaunchError(f"unknown task {name!r}")
        return rec

    def running_tasks(self) -> list[str]:
        return [name for name, rec in self.records.items() if rec.is_running]

    def all_idle(self) -> bool:
        """True when no task instance is launching, running, or stopping."""
        return not any(rec.is_active for rec in self.records.values())

    def get_resource_status(self) -> dict[str, str]:
        """Plugin op: per-node health, as the scheduler reports it."""
        return self.rm.node_status()

    # -- workflow start --------------------------------------------------------------
    def launch_workflow(self) -> None:
        """Start every autostart task with its spec-level resources.

        Launches run as independent simulated processes so tasks come up
        concurrently, like Savanna spawning the initial composition.
        """
        for name in self.workflow.autostart_tasks():
            spec = self.workflow.task(name)
            resources = self.rm.assign(name, spec.nprocs, spec.procs_per_node)
            self.engine.process(
                self.start_task_with_resources(name, resources, preassigned=True),
                name=f"launch:{name}",
            )

    # -- plugin: start ------------------------------------------------------------------
    def start_task_with_resources(
        self,
        name: str,
        resources: ResourceSet,
        user_script: str | None = None,
        params: dict[str, Any] | None = None,
        preassigned: bool = False,
    ):
        """Plugin op (generator): launch *name* on *resources*.

        Args:
            resources: explicit core assignment for the instance.
            user_script: optional user script run before launch (the
                paper's ``restart-xgc.sh``), modelled as a fixed overhead.
            params: extra task parameters (action params from policies).
            preassigned: resources were already booked in the resource
                manager by the caller.

        Returns (via StopIteration value) the RUNNING :class:`TaskInstance`.
        """
        rec = self.record(name)
        if rec.is_active:
            raise LaunchError(f"task {name!r} already active")
        if resources.total_cores <= 0:
            raise LaunchError(f"task {name!r}: empty resource set")
        if not preassigned:
            self.rm.assign_set(name, resources)
        instance = TaskInstance(
            task=name,
            workflow_id=self.workflow.workflow_id,
            incarnation=rec.incarnations,
            resources=resources,
            launch_time=self.engine.now,
        )
        rec.incarnations += 1
        rec.current = instance
        rec.history.append(instance)
        instance.transition(TaskState.LAUNCHING)
        launch_span = self.tracer.start_span(
            "wms.launch", "wms", parent=None,
            task=name, nprocs=resources.total_cores, incarnation=instance.incarnation,
        ) if self.tracer.enabled else None

        delay = self.perf.launch_latency + self.perf.per_process_launch * resources.total_cores
        if user_script:
            delay += self.perf.script_overhead
        yield self.engine.timeout(delay, name=f"launch-delay:{name}")

        if instance.stop_requested:
            # Stopped while still launching: never spawn the app.
            self._finalize(instance, exit_code=0, state=TaskState.STOPPED)
            if launch_span is not None:
                self.tracer.end_span(launch_span, outcome="aborted")
            return instance

        ctx = self._make_context(instance, user_script, params)
        app = rec.spec.make_app()
        instance.proc = self.engine.process(app.run(ctx), name=instance.instance_id)
        instance.ctx = ctx
        instance.start_time = self.engine.now
        instance.transition(TaskState.RUNNING)
        self.trace.open_span(
            name, instance.instance_id, self.engine.now, category="task",
            nprocs=resources.total_cores, incarnation=instance.incarnation,
        )
        instance.proc.callbacks.append(lambda _ev, inst=instance: self._on_proc_exit(inst))
        if launch_span is not None:
            self.tracer.end_span(launch_span, outcome="running")
            self.tracer.metrics.counter("wms.launches").inc()
            # Placement record: the utilization analysis reconstructs
            # per-node busy timelines from these (docs/observability.md).
            self.tracer.point(
                "wms.task-running", "wms",
                task=name, instance=instance.instance_id,
                incarnation=instance.incarnation, nodes=resources.as_dict(),
            )
        for cb in self._start_listeners:
            cb(instance)
        return instance

    def _make_context(
        self, instance: TaskInstance, user_script: str | None, params: dict[str, Any] | None
    ) -> TaskContext:
        rank_nodes: dict[int, str] = {}
        rank = 0
        for node_id, ncores in instance.resources.items():
            for _ in range(ncores):
                rank_nodes[rank] = node_id
                rank += 1
        merged = dict(self.record(instance.task).spec.params)
        if params:
            merged.update(params)
        if user_script:
            merged["user_script"] = user_script
        if self.checkpoint_spec is not None:
            if self.checkpoint_spec.every > 0:
                merged.setdefault("checkpoint-every", self.checkpoint_spec.every)
            if self.checkpoint_spec.resume:
                merged.setdefault("resume-from-checkpoint", 1)
        return TaskContext(
            engine=self.engine,
            hub=self.hub,
            coupling=self.coupling,
            perf=self.perf,
            rngs=self.rng,
            rng_name=f"task:{instance.instance_id}",
            workflow_id=self.workflow.workflow_id,
            task=instance.task,
            incarnation=instance.incarnation,
            nprocs=instance.nprocs,
            rank_nodes=rank_nodes,
            tight_parents=self.workflow.tight_parents(instance.task),
            params=merged,
            poll_interval=self.poll_interval,
            counters=self.counters,
            heartbeat_cb=lambda t, inst=instance: setattr(inst, "last_heartbeat", t),
        )

    # -- plugin: signals and stop -------------------------------------------------------
    def signal_term_task(self, name: str):
        """Plugin op (generator): deliver SIGTERM (graceful stop request)."""
        yield from self._signal(name, Signal.term())

    def signal_kill_task(self, name: str, code: int = 137, cause: str = "orchestrated"):
        """Plugin op (generator): deliver SIGKILL (immediate death).

        ``cause`` labels who delivered the kill (``"orchestrated"``,
        ``"watchdog"``, ``"chaos"``); deliberate orchestration kills are
        never retried, fault kills are.
        """
        yield from self._signal(name, Signal.kill(code), cause=cause)

    def _signal(self, name: str, sig: Signal, cause: str = "orchestrated"):
        rec = self.record(name)
        instance = rec.current
        if instance is None or not instance.is_active:
            return
        instance.stop_requested = True
        if instance.state == TaskState.RUNNING:
            instance.transition(TaskState.STOPPING)
        yield self.engine.timeout(self.perf.signal_latency, name=f"signal:{name}")
        if instance.proc is not None and instance.is_active:
            if sig.kind == "kill":
                instance.kill_cause = cause
            instance.proc.interrupt(sig)

    def reconfig_task(self, name: str, params: dict[str, Any]):
        """Plugin op (generator): deliver new parameters to a running task.

        The §6 extension: a finer-grained control operation than
        stop-and-relaunch.  Delivery costs one signal latency; the task
        applies the update at its next step boundary.  Returns True if a
        running instance received the update.
        """
        rec = self.record(name)
        instance = rec.current
        if instance is None or instance.state != TaskState.RUNNING or instance.ctx is None:
            return False
        yield self.engine.timeout(self.perf.signal_latency, name=f"reconfig:{name}")
        if instance.ctx is not None and instance.state == TaskState.RUNNING:
            instance.ctx.deliver_control(params)
            self.trace.point(self.engine.now, f"reconfig:{name}", category="action", params=params)
            return True
        return False

    def stop_task(self, name: str, graceful: bool = True):
        """Plugin op (generator): signal *name* and wait for it to exit.

        With ``graceful=True`` the task finishes its current timestep —
        the dominant share of DYFLOW's measured response time (§4.6).
        Returns the final instance (or None if the task was not active).
        """
        rec = self.record(name)
        instance = rec.current
        if instance is None or not instance.is_active:
            return None
        teardown_span = self.tracer.start_span(
            "wms.teardown", "wms", parent=None, task=name, graceful=graceful,
        ) if self.tracer.enabled else None
        sig = Signal.term() if graceful else Signal.kill(137)
        yield from self._signal(name, sig)
        yield from self.wait_task(name)
        if teardown_span is not None:
            self.tracer.end_span(teardown_span)
            self.tracer.metrics.counter("wms.teardowns").inc()
        return instance

    def wait_task(self, name: str):
        """Plugin op (generator): wait until *name* has no active instance."""
        rec = self.record(name)
        while rec.is_active:
            instance = rec.current
            if instance is not None and instance.proc is not None:
                if not instance.proc.triggered:
                    yield instance.proc
                else:
                    yield self.engine.timeout(0.0)
            else:
                yield self.engine.timeout(self.poll_interval)

    # -- plugin: elastic resources -------------------------------------------------------
    def request_resources(self, num_nodes: int) -> bool:
        """Plugin op: ask the scheduler for more nodes.

        On-demand allocation "is not commonplace on supercomputers"
        (paper §3) — the static allocation cannot grow, so this reports
        failure; Arbitration then falls back to victim selection.
        """
        return False

    def release_resources(self, rs: ResourceSet) -> ResourceSet:
        """Plugin op: return cores to the allocation's free pool.

        Cores released by shrinking/stopping tasks are already returned by
        the resource manager; this exists for plugin-interface parity and
        returns the free pool after the (no-op) release.
        """
        return self.rm.free()

    # -- failure handling ------------------------------------------------------------------
    def handle_node_failure(self, node_id: str) -> list[str]:
        """A node died: strip it from assignments and kill affected tasks.

        Returns the task names whose instances were killed (exit > 128).
        """
        affected = self.rm.on_node_failure(node_id)
        for name in affected:
            rec = self.record(name)
            instance = rec.current
            if instance is None or not instance.is_active:
                continue
            instance.stop_requested = True
            instance.kill_cause = "node-failure"
            if instance.state == TaskState.RUNNING:
                instance.transition(TaskState.STOPPING)
            if instance.proc is not None:
                instance.proc.interrupt(Signal.kill(137))
        if self.quarantine is not None:
            # A dead node is blamed immediately: should the scheduler
            # report it UP again, the cooldown still keeps it out.
            if self.quarantine.record_failure(node_id):
                self.trace.point(
                    self.engine.now, f"quarantine:{node_id}", category="failure"
                )
        self.trace.point(self.engine.now, f"node-failure:{node_id}", category="failure")
        self.tracer.point("wms.node_failure", "failure", node=node_id, killed=len(affected))
        return affected

    def handle_walltime_timeout(self) -> None:
        """The batch job hit its walltime: everything is killed (code 140)."""
        for name, rec in self.records.items():
            instance = rec.current
            if instance is not None and instance.is_active and instance.proc is not None:
                instance.stop_requested = True
                instance.kill_cause = "walltime"
                if instance.state == TaskState.RUNNING:
                    instance.transition(TaskState.STOPPING)
                instance.proc.interrupt(Signal.kill(140))
        self.trace.point(self.engine.now, "walltime-timeout", category="failure")

    # -- exit path ------------------------------------------------------------------------
    def _on_proc_exit(self, instance: TaskInstance) -> None:
        proc = instance.proc
        assert proc is not None
        if proc.ok:
            code = int(proc.value) if proc.value is not None else 0
        else:
            code = 1  # app crashed with an exception
        if instance.ctx is not None:
            instance.notes.update(instance.ctx.notes)
        if code != 0:
            state = TaskState.FAILED
        elif instance.stop_requested and not instance.notes.get("completed", False):
            state = TaskState.STOPPED
        else:
            state = TaskState.COMPLETED
        self._finalize(instance, exit_code=code, state=state)

    def _finalize(self, instance: TaskInstance, exit_code: int, state: TaskState) -> None:
        instance.exit_code = exit_code
        instance.end_time = self.engine.now
        if instance.state != state:
            instance.transition(state)
        self.rm.release_if_held(instance.task)
        self.coupling.deregister_everywhere(instance.task)
        # Savanna saves the exit status where the STATUS sensor reads it (§4.5).
        self.hub.filesystem.append_record(
            f"status/{self.workflow.workflow_id}/{instance.task}",
            {
                "code": exit_code,
                "time": self.engine.now,
                "incarnation": instance.incarnation,
                "rank": 0,
                "state": state.value,
            },
            mtime=self.engine.now,
        )
        try:
            self.trace.close_span(
                instance.task, instance.instance_id, self.engine.now,
                exit_code=exit_code, state=state.value,
            )
            self.tracer.point(
                "wms.task-end", "wms",
                task=instance.task, instance=instance.instance_id,
                incarnation=instance.incarnation, state=state.value,
            )
        except ValueError:
            pass  # stopped during launch: span was never opened
        if state == TaskState.COMPLETED:
            rec = self.record(instance.task)
            rec.retries_used = 0
            rec.retry_exhausted = False
        elif state == TaskState.FAILED:
            self._on_task_failure(instance)
        for cb in self._end_listeners:
            cb(instance)

    # -- recovery: blame + retry/backoff ---------------------------------------------------
    def _on_task_failure(self, instance: TaskInstance) -> None:
        """A task instance died with a nonzero code: blame and maybe retry.

        Deliberate kills (orchestrated stops, walltime) are not faults.
        Node-failure deaths already blamed the dead node inside
        :meth:`handle_node_failure`, so the surviving nodes of the
        instance are NOT blamed here — only genuinely task-level faults
        (app crash, watchdog kill, chaos kill) count against every node
        the instance ran on.
        """
        cause = instance.kill_cause
        if cause in _DELIBERATE_KILLS:
            return
        if self.quarantine is not None and cause != "node-failure":
            for node_id in instance.resources.node_ids:
                if self.quarantine.record_failure(node_id):
                    self.trace.point(
                        self.engine.now, f"quarantine:{node_id}", category="failure"
                    )
        if self.retry_policy is not None:
            self._schedule_retry(instance.task)

    def _schedule_retry(self, name: str) -> None:
        """Book a relaunch of *name* after an exponential-backoff delay."""
        rec = self.record(name)
        assert self.retry_policy is not None
        if self.retry_policy.exhausted(rec.retries_used):
            if not rec.retry_exhausted:
                rec.retry_exhausted = True
                self.trace.point(
                    self.engine.now, f"retry-exhausted:{name}", category="failure",
                    retries=rec.retries_used,
                )
            return
        attempt = rec.retries_used
        rec.retries_used += 1
        delay = self.retry_policy.delay(attempt, self.rng.stream("resilience:backoff"))
        self.trace.point(
            self.engine.now, f"retry-scheduled:{name}", category="failure",
            attempt=attempt + 1, delay=delay,
        )
        self.engine.call_after(delay, lambda: self._retry_launch(name), name=f"retry:{name}")

    def _retry_launch(self, name: str) -> None:
        """Relaunch *name* on freshly placed cores (quarantine-aware)."""
        rec = self.record(name)
        if rec.is_active or rec.retry_exhausted:
            return  # something else already resurrected or gave up on it
        last = rec.history[-1] if rec.history else None
        ncores = last.nprocs if last is not None else rec.spec.nprocs
        try:
            resources = self.rm.assign(name, ncores, rec.spec.procs_per_node)
        except AllocationError:
            try:
                resources = self.rm.assign(name, ncores)  # packed fallback
            except AllocationError:
                # No room right now (quarantine may shrink the pool):
                # burn another retry slot and wait out a longer backoff.
                self._schedule_retry(name)
                return
        self.engine.process(
            self.start_task_with_resources(name, resources, preassigned=True),
            name=f"retry:{name}",
        )
