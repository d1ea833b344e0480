"""Batch scheduler: FIFO job queue handing out whole-node allocations.

Savanna "communicates with the cluster scheduler [and] allocates the
required resources" (paper §3).  The reproduction needs a scheduler that
can (a) grant whole-node allocations, (b) enforce walltime limits — the
Gray-Scott experiment's failure mode without DYFLOW is precisely a
walltime timeout — and (c) report node-status changes, which Arbitration
"(indirectly) relies on the underlying job scheduler to provide" (§4.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.allocation import Allocation
from repro.cluster.machine import Machine
from repro.cluster.node import Node, NodeState
from repro.errors import SchedulerError
from repro.sim.engine import SimEngine
from repro.sim.events import SimEvent
from repro.util.ids import IdGenerator


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    TIMEOUT = "timeout"
    CANCELLED = "cancelled"


@dataclass
class BatchJob:
    """A submitted batch job and its lifecycle."""

    job_id: str
    num_nodes: int
    walltime_limit: float
    state: JobState = JobState.PENDING
    allocation: Allocation | None = None
    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    granted: SimEvent | None = None
    on_timeout: Callable[["BatchJob"], None] | None = None
    _deadline_event: SimEvent | None = field(default=None, repr=False)


class BatchScheduler:
    """Scheduler over one machine's node inventory.

    Dispatch is FIFO by default; with ``backfill=True`` it runs EASY
    backfilling: the queue head gets a reservation at the earliest time
    enough nodes will be free (running jobs release nodes at their
    walltime deadlines at the latest), and later jobs may jump ahead only
    if doing so cannot delay that reservation — either they finish before
    it, or they fit in the nodes the reservation does not need.
    """

    def __init__(self, engine: SimEngine, machine: Machine, backfill: bool = False) -> None:
        self.engine = engine
        self.machine = machine
        self.backfill = backfill
        self._ids = IdGenerator()
        self._queue: list[BatchJob] = []
        self._running: dict[str, BatchJob] = {}
        self._busy_nodes: set[str] = set()
        self.backfilled_jobs = 0

    # -- submission -------------------------------------------------------------
    def submit(
        self,
        num_nodes: int,
        walltime_limit: float,
        on_timeout: Callable[[BatchJob], None] | None = None,
    ) -> BatchJob:
        """Queue a job; ``job.granted`` succeeds with its Allocation."""
        if num_nodes <= 0:
            raise SchedulerError(f"num_nodes must be > 0, got {num_nodes}")
        if num_nodes > len(self.machine.nodes):
            raise SchedulerError(
                f"requested {num_nodes} nodes; machine {self.machine.name} has "
                f"{len(self.machine.nodes)}"
            )
        if walltime_limit <= 0:
            raise SchedulerError(f"walltime_limit must be > 0, got {walltime_limit}")
        job = BatchJob(
            job_id=self._ids.next("job"),
            num_nodes=num_nodes,
            walltime_limit=walltime_limit,
            submit_time=self.engine.now,
            granted=self.engine.event("job-granted"),
            on_timeout=on_timeout,
        )
        self._queue.append(job)
        self._try_dispatch()
        return job

    # -- completion -----------------------------------------------------------------
    def complete(self, job: BatchJob) -> None:
        """Job finished normally; its nodes return to the pool."""
        if job.state != JobState.RUNNING:
            raise SchedulerError(f"job {job.job_id} not running (state={job.state.value})")
        self._finish(job, JobState.COMPLETED)

    def cancel(self, job: BatchJob) -> None:
        """Cancel a pending or running job."""
        if job.state == JobState.PENDING:
            self._queue.remove(job)
            job.state = JobState.CANCELLED
            job.end_time = self.engine.now
            return
        if job.state == JobState.RUNNING:
            self._finish(job, JobState.CANCELLED)
            return
        raise SchedulerError(f"cannot cancel job {job.job_id} in state {job.state.value}")

    def _finish(self, job: BatchJob, state: JobState) -> None:
        job.state = state
        job.end_time = self.engine.now
        del self._running[job.job_id]
        assert job.allocation is not None
        for node in job.allocation.nodes:
            self._busy_nodes.discard(node.node_id)
        self._try_dispatch()

    # -- dispatch ------------------------------------------------------------------
    def _available_nodes(self) -> list[Node]:
        return [
            n
            for n in self.machine.nodes
            if n.state == NodeState.UP and n.node_id not in self._busy_nodes
        ]

    def _try_dispatch(self) -> None:
        """Start queued jobs: FIFO while the head fits, then backfill."""
        while self._queue:
            job = self._queue[0]
            if len(self._available_nodes()) < job.num_nodes:
                break
            self._queue.pop(0)
            self._start_job(job)
        if self.backfill and self._queue:
            self._try_backfill()

    def _start_job(self, job: BatchJob) -> None:
        avail = self._available_nodes()
        nodes = avail[: job.num_nodes]
        for node in nodes:
            self._busy_nodes.add(node.node_id)
        alloc = Allocation(
            alloc_id=self._ids.next("alloc"),
            machine=self.machine,
            nodes=nodes,
            walltime_limit=job.walltime_limit,
            start_time=self.engine.now,
        )
        job.allocation = alloc
        job.state = JobState.RUNNING
        job.start_time = self.engine.now
        self._running[job.job_id] = job
        job._deadline_event = self.engine.call_at(
            alloc.deadline, lambda j=job: self._on_deadline(j), name=f"{job.job_id}:deadline"
        )
        assert job.granted is not None
        job.granted.succeed(alloc)

    def _head_reservation(self) -> tuple[float, int]:
        """(earliest start time for the queue head, spare nodes then).

        Running jobs release their nodes at their walltime deadlines at
        the latest; walking those deadlines in order finds the first
        instant the head's request fits.
        """
        head = self._queue[0]
        free = len(self._available_nodes())
        releases = sorted(
            (j.allocation.deadline, len(j.allocation.nodes))
            for j in self._running.values()
            if j.allocation is not None
        )
        t = self.engine.now
        for deadline, released in releases:
            if free >= head.num_nodes:
                break
            t = deadline
            free += released
        return t, free - head.num_nodes

    def _try_backfill(self) -> None:
        """EASY backfill: later jobs may start now if the head's
        reservation cannot be delayed by it."""
        reservation_time, spare = self._head_reservation()
        i = 1
        while i < len(self._queue):
            job = self._queue[i]
            free_now = len(self._available_nodes())
            if job.num_nodes > free_now:
                i += 1
                continue
            finishes_before = self.engine.now + job.walltime_limit <= reservation_time
            fits_in_spare = job.num_nodes <= spare
            if finishes_before or fits_in_spare:
                self._queue.pop(i)
                self._start_job(job)
                self.backfilled_jobs += 1
                if fits_in_spare and not finishes_before:
                    spare -= job.num_nodes
            else:
                i += 1

    def _on_deadline(self, job: BatchJob) -> None:
        """Walltime expired: the scheduler kills the job."""
        if job.state != JobState.RUNNING:
            return
        self._finish(job, JobState.TIMEOUT)
        if job.on_timeout is not None:
            job.on_timeout(job)

    # -- introspection ---------------------------------------------------------------
    @property
    def pending_jobs(self) -> list[BatchJob]:
        return list(self._queue)
