"""The live launcher: the actuation plugin over local threads.

:class:`LiveLauncher` is the wall-clock counterpart of
:class:`~repro.wms.launcher.Savanna` and shares its records, resource
manager, log, start and exit bookkeeping and retry path
(:class:`~repro.wms.launcher.LauncherCore`).  A task instance is a
:class:`_LiveInstance` thread on a one-node allocation.  Its plugin ops
are generators whose waits are wall-clock seconds, slept by the threaded
driver outside :attr:`LiveLauncher.lock`, which every state change holds.
The clock is the driver's.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.allocation import Allocation, ResourceSet
from repro.cluster.machine import Machine
from repro.cluster.node import Node
from repro.errors import LaunchError
from repro.resilience.spec import ResilienceSpec
from repro.sim.rng import RngRegistry
from repro.staging.serialization import Sample
from repro.wms.launcher import LauncherCore
from repro.wms.spec import TaskSpec
from repro.wms.task import TaskInstance, TaskState


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

    def finished(self, step: int) -> bool:
        """Is a run that reached *step* done?"""
        return self.total_steps is not None and step >= self.total_steps


class _LiveInstance(threading.Thread):
    """One incarnation of a live task, running its step loop."""

    def __init__(self, launcher: "LiveLauncher", instance: TaskInstance, step: int) -> None:
        super().__init__(name=instance.instance_id, daemon=True)
        self.launcher, self.instance, self.step = launcher, instance, step

    def run(self) -> None:
        launcher, instance = self.launcher, self.instance
        spec = launcher.specs[instance.task]
        channel = launcher.hub.channel(f"tau-{launcher.workflow_id}-{spec.name}")
        code = 0
        try:
            while not instance.stop_requested and not spec.finished(self.step):
                t0 = launcher.now()
                spec.work(self.step, instance.nprocs)
                now = launcher.now()
                with launcher.lock:
                    if not instance.is_active:
                        return  # abandoned by a kill: its late output is ignored
                    channel.put([Sample(
                        time=now, workflow_id=launcher.workflow_id, task=spec.name, rank=0,
                        node_id="local", var="looptime", value=now - t0, step=self.step,
                    )], now)
                    self.step += 1
                    instance.last_heartbeat = now
                    launcher.on_step(instance, self.step)
        except Exception:  # noqa: BLE001 - a crashed task is a failed task
            code = 1
        launcher._on_exit(self, code)


class LiveLauncher(LauncherCore):
    """Runs :class:`LiveTaskSpec` tasks as threads on wall-clock time.

    ``cores`` is the one node's core count, the most workers the tasks
    may hold at once (``None``: never binds).  ``on_step(instance,
    next_step)`` runs under the lock after every completed step.
    """

    def __init__(self, workflow_id: str, specs: dict[str, LiveTaskSpec], cores: int | None,
                 clock: Callable[[], float], rng: RngRegistry, resilience: ResilienceSpec | None,
                 poll_interval: float, on_step: Callable[[TaskInstance, int], None]) -> None:
        node = Node("local", cores if cores is not None else sys.maxsize)
        allocation = Allocation("live", Machine("local", [node]), [node], walltime_limit=math.inf)
        self.specs = specs
        self.now = clock
        self.lock = threading.RLock()
        self.poll_interval = poll_interval
        self.on_step = on_step
        #: Step each task relaunches at on its next start (checkpoint resume).
        self.resume_steps: dict[str, int] = {}
        self._timers: list[threading.Timer] = []
        self._closed = False
        # A live task's ``work`` is its behaviour model.
        tasks = {n: TaskSpec(n, s.work, s.nworkers) for n, s in specs.items()}
        super().__init__(workflow_id, tasks, allocation, None, rng, resilience)

    def idle(self) -> bool:
        """No instance is active and no retry is pending."""
        with self.lock:
            return not self._timers and not any(r.is_active for r in self.records.values())

    # -- lifecycle ------------------------------------------------------------------
    def launch_workflow(self) -> None:
        """Start every task with steps left on its spec's worker count."""
        with self.lock:
            for name, spec in self.specs.items():
                if spec.finished(self.resume_steps.get(name, 0)):
                    continue  # finished before a crash; nothing to redo
                resources = self.rm.assign(name, spec.nworkers)
                self._spawn(self.start_task_with_resources(name, resources, preassigned=True), name)

    def shutdown(self) -> list[_LiveInstance]:
        """Cancel pending retries and ask every instance to stop; returns
        their threads, to be joined without the lock."""
        with self.lock:
            self._closed = True
            for timer in self._timers:
                timer.cancel()
            self._timers.clear()
            active = [r.current for r in self.records.values() if r.is_active]
            for instance in active:
                self._request_stop(instance)
        return [instance.ctx for instance in active]

    # -- plugin ops ---------------------------------------------------------------------
    def start_task_with_resources(self, name: str, resources: ResourceSet,
                                  user_script: str | None = None,
                                  params: dict[str, Any] | None = None, preassigned: bool = False):
        """Plugin op: start *name*'s thread with one worker per core; never
        waits.  A live task's ``work`` takes no script or parameters."""
        yield from ()
        rec = self.record(name)
        if rec.is_active or self._closed:
            raise LaunchError(f"task {name!r} already active or the launcher shut down")
        if not preassigned:
            self.rm.assign_set(name, resources)
        now = self.now()
        instance = TaskInstance(
            task=name, workflow_id=self.workflow_id, incarnation=rec.incarnations,
            resources=resources, launch_time=now, start_time=now, last_heartbeat=now,
        )
        rec.incarnations += 1
        rec.current = instance
        rec.history.append(instance)
        instance.transition(TaskState.LAUNCHING)
        instance.transition(TaskState.RUNNING)
        channel = self.hub.channel(f"tau-{self.workflow_id}-{name}")
        if channel.closed:
            channel.reopen()
        instance.ctx = _LiveInstance(self, instance, self.resume_steps.pop(name, 0))
        self._running(instance)
        instance.ctx.start()
        return instance

    def stop_task(self, name: str, graceful: bool = True):
        """Plugin op: ask *name* to stop after its current step and wait for
        its exit.  A thread can only be asked, so every stop is graceful."""
        instance = self.record(name).current
        if instance is None or not instance.is_active:
            return None
        self._request_stop(instance)
        while instance.is_active:
            yield self.poll_interval
        return instance

    def signal_kill_task(self, name: str, code: int = 137, cause: str = "orchestrated"):
        """Plugin op: a thread cannot be killed, so the instance is abandoned:
        finalized now with *code*, and its late exit is ignored."""
        yield from ()
        instance = self.record(name).current
        if instance is not None and instance.is_active:
            self._request_stop(instance)
            instance.kill_cause = cause
            self._finalize(instance, code, TaskState.FAILED)

    def reconfig_task(self, name: str, params: dict[str, Any]):
        """Plugin op: a live task's ``work`` takes no parameters."""
        yield from ()
        return False

    # -- internals ----------------------------------------------------------------------
    def _request_stop(self, instance: TaskInstance) -> None:
        instance.stop_requested = True  # the thread checks it between steps
        if instance.state == TaskState.RUNNING:
            instance.transition(TaskState.STOPPING)

    def _on_exit(self, thread: _LiveInstance, code: int) -> None:
        with self.lock:
            instance = thread.instance
            if not instance.is_active:
                return  # abandoned by a kill; a replacement may already run
            if code:
                state = TaskState.FAILED
            elif instance.stop_requested and not self.specs[instance.task].finished(thread.step):
                state = TaskState.STOPPED
            else:
                state = TaskState.COMPLETED
            self._finalize(instance, code, state)

    def _call_after(self, delay: float, fn: Callable[[], None], name: str) -> None:
        if self._closed:
            return

        def fire() -> None:
            with self.lock:
                if timer in self._timers:  # not cancelled by shutdown
                    self._timers.remove(timer)
                    fn()

        timer = threading.Timer(delay, fire)
        timer.name, timer.daemon = name, True
        self._timers.append(timer)
        timer.start()

    def _spawn(self, op, name: str) -> None:
        for _ in op:  # a start or a kill never waits
            pass
