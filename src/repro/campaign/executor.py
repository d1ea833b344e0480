"""PaPaS-style crash-supervised parallel executor for campaign cells.

PaPaS (PAPERS.md) runs parameter-study cells as supervised OS processes;
this executor reproduces that shape for the campaign grid:

* **one worker process per attempt** — a cell attempt runs in a fresh
  ``fork``ed process, so a crash (or a ``kill -9``) takes down only that
  attempt, never the supervisor or a neighbor cell;
* **dead-worker detection and respawn** — the supervisor polls its
  workers; a worker that exits without reporting a result is a failed
  attempt, and the cell is respawned after a backoff delay;
* **per-cell timeout** — an attempt that outlives ``cell_timeout`` is
  SIGKILLed and counted as a timeout failure;
* **retry with exponential backoff + jitter** — delays follow
  ``base * factor^attempt`` capped at ``backoff_max``, jittered by a
  draw from the cell's *named* RNG stream (``campaign:retry:<cell>``),
  so the schedule is reproducible from the registry seed;
* **poison-cell quarantine** — a cell failing ``max_attempts`` times is
  declared *poisoned* and set aside; the grid completes around it.

With ``workers=0`` the executor runs cells serially in-process: no
processes, no wall clock, fully deterministic (timeouts are not
enforced — nothing can preempt the cell).  Worker-kill fault injection
(``kill_prob``) draws from ``campaign:chaos:<cell>`` in the supervisor,
so chaos runs replay exactly.

This module is on the self-lint wall-clock exemption list: supervising
real OS processes requires real deadlines.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.campaign.spec import ExecutorSpec
from repro.errors import ReproError
from repro.sim.rng import RngRegistry

#: Supervisor poll period between worker checks, seconds.
_POLL = 0.005

COMPLETED = "completed"
POISONED = "poisoned"


@dataclass(frozen=True)
class CellFailure:
    """One failed attempt: what went wrong, on which attempt, how long in."""

    attempt: int
    kind: str  # "error" | "timeout" | "worker-died" | "killed"
    detail: str = ""
    backoff: float = 0.0


@dataclass
class CellOutcome:
    """Terminal state of one cell after supervision."""

    cell_id: str
    status: str  # COMPLETED | POISONED
    result: Any = None
    attempts: int = 0
    failures: list[CellFailure] = field(default_factory=list)

    @property
    def poisoned(self) -> bool:
        return self.status == POISONED


def _worker_main(fn, payload, kill: bool, conn) -> None:
    """Worker-process entry: run one attempt, report through the pipe."""
    if kill:
        # Injected worker-kill fault: die the way a real crashed worker
        # does — no exception, no result, just a SIGKILLed process.
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        result = fn(payload)
    except Exception as err:  # noqa: BLE001 - any cell error is a failed attempt
        conn.send(("error", f"{type(err).__name__}: {err}"))
    else:
        conn.send(("ok", result))
    finally:
        conn.close()


@dataclass
class _Attempt:
    """One in-flight worker process under supervision."""

    cell_id: str
    proc: Any
    conn: Any
    started: float
    killed: bool  # chaos-injected kill pending inside the worker


@dataclass
class _CellState:
    cell_id: str
    payload: Any
    attempts: int = 0
    ready_at: float = 0.0
    failures: list[CellFailure] = field(default_factory=list)


class SupervisedExecutor:
    """Run a batch of cells to completion under crash supervision."""

    def __init__(self, spec: ExecutorSpec, rng: RngRegistry | None = None) -> None:
        spec.validate()
        self.spec = spec
        self.rng = rng if rng is not None else RngRegistry(0)
        self.respawns = 0

    # -- deterministic schedules -------------------------------------------------
    def backoff(self, cell_id: str, attempt: int) -> float:
        """Retry delay before attempt *attempt*+1, jittered per cell stream."""
        s = self.spec
        delay = min(s.backoff_max, s.backoff_base * (s.backoff_factor ** attempt))
        if s.jitter > 0:
            u = float(self.rng.stream(f"campaign:retry:{cell_id}").random())
            delay *= 1.0 + s.jitter * (2.0 * u - 1.0)
        return delay

    def _chaos_kill(self, cell_id: str) -> bool:
        if self.spec.kill_prob <= 0:
            return False
        u = float(self.rng.stream(f"campaign:chaos:{cell_id}").random())
        return u < self.spec.kill_prob

    # -- entry point --------------------------------------------------------------
    def run(
        self,
        cells: Sequence[tuple[str, Any]],
        fn: Callable[[Any], Any],
    ) -> list[CellOutcome]:
        """Execute ``(cell_id, payload)`` pairs; returns outcomes in order.

        *fn* runs in a worker process (``workers > 0``), so it and every
        payload must be picklable; with ``workers=0`` it runs inline.
        """
        ids = [cid for cid, _ in cells]
        if len(set(ids)) != len(ids):
            raise ReproError("duplicate cell ids in executor batch")
        if self.spec.workers == 0:
            outcomes = {cid: self._run_serial(cid, p, fn) for cid, p in cells}
        else:
            outcomes = self._run_supervised(cells, fn)
        return [outcomes[cid] for cid in ids]

    # -- serial mode (deterministic, in-process) -----------------------------------
    def _run_serial(self, cell_id: str, payload: Any, fn) -> CellOutcome:
        out = CellOutcome(cell_id=cell_id, status=POISONED)
        for attempt in range(self.spec.max_attempts):
            out.attempts = attempt + 1
            if self._chaos_kill(cell_id):
                out.failures.append(CellFailure(
                    attempt + 1, "killed", "injected worker kill",
                    backoff=self.backoff(cell_id, attempt),
                ))
                continue
            try:
                result = fn(payload)
            except Exception as err:  # noqa: BLE001 - counted and retried
                out.failures.append(CellFailure(
                    attempt + 1, "error", f"{type(err).__name__}: {err}",
                    backoff=self.backoff(cell_id, attempt),
                ))
                continue
            out.status = COMPLETED
            out.result = result
            break
        return out

    # -- supervised mode (worker processes) ----------------------------------------
    def _run_supervised(
        self, cells: Sequence[tuple[str, Any]], fn
    ) -> dict[str, CellOutcome]:
        ctx = multiprocessing.get_context("fork")
        states = {cid: _CellState(cid, payload) for cid, payload in cells}
        pending: list[str] = [cid for cid, _ in cells]
        running: dict[str, _Attempt] = {}
        outcomes: dict[str, CellOutcome] = {}

        def spawn(state: _CellState) -> None:
            kill = self._chaos_kill(state.cell_id)
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_main, args=(fn, state.payload, kill, child))
            proc.start()
            child.close()
            if state.attempts > 0:
                self.respawns += 1
            state.attempts += 1
            running[state.cell_id] = _Attempt(
                state.cell_id, proc, parent, time.monotonic(), kill
            )

        def fail(state: _CellState, kind: str, detail: str) -> None:
            attempt = state.attempts
            if attempt >= self.spec.max_attempts:
                state.failures.append(CellFailure(attempt, kind, detail))
                outcomes[state.cell_id] = CellOutcome(
                    cell_id=state.cell_id, status=POISONED,
                    attempts=attempt, failures=state.failures,
                )
                return
            delay = self.backoff(state.cell_id, attempt - 1)
            state.failures.append(CellFailure(attempt, kind, detail, backoff=delay))
            state.ready_at = time.monotonic() + delay
            pending.append(state.cell_id)

        while pending or running:
            now = time.monotonic()
            # Fill free worker slots with ready cells, submission order.
            for cid in list(pending):
                if len(running) >= self.spec.workers:
                    break
                if states[cid].ready_at <= now:
                    pending.remove(cid)
                    spawn(states[cid])
            # Poll the fleet.
            for cid, att in list(running.items()):
                state = states[cid]
                if att.conn.poll():
                    try:
                        kind, value = att.conn.recv()
                    except EOFError:
                        # Pipe at EOF with no message: the worker died
                        # before reporting (poll() wakes on EOF too).
                        att.proc.join()
                        att.conn.close()
                        del running[cid]
                        kind = "killed" if att.killed else "worker-died"
                        fail(state, kind, f"exitcode {att.proc.exitcode}")
                        continue
                    att.proc.join()
                    att.conn.close()
                    del running[cid]
                    if kind == "ok":
                        outcomes[cid] = CellOutcome(
                            cell_id=cid, status=COMPLETED, result=value,
                            attempts=state.attempts, failures=state.failures,
                        )
                    else:
                        fail(state, "error", value)
                    continue
                elapsed = time.monotonic() - att.started
                if att.proc.exitcode is not None:
                    # Died without a result: crash or injected kill.
                    att.conn.close()
                    del running[cid]
                    kind = "killed" if att.killed else "worker-died"
                    fail(state, kind, f"exitcode {att.proc.exitcode}")
                    continue
                if 0 < self.spec.cell_timeout < elapsed:
                    att.proc.kill()
                    att.proc.join()
                    att.conn.close()
                    del running[cid]
                    fail(state, "timeout",
                         f"exceeded {self.spec.cell_timeout}s cell timeout")
            if pending or running:
                time.sleep(_POLL)
        return outcomes
