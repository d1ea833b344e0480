"""Cheetah-like campaign composition: parameter sweeps over workflows.

Cheetah "is a composition tool used to specify the workflow" and was built
for co-design studies sweeping resource-allocation trade-offs (paper §3).
:class:`Campaign` generates one :class:`WorkflowSpec` per point of a
cartesian parameter sweep, which the benchmark harness uses to run the
same workflow across machines and configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.campaign.executor import SupervisedExecutor
from repro.campaign.spec import ExecutorSpec
from repro.campaign.statepoint import statepoint_id
from repro.journal import RunLedger
from repro.wms.spec import WorkflowSpec


@dataclass(frozen=True)
class Sweep:
    """One swept parameter: a name and its values."""

    name: str
    values: tuple

    def __init__(self, name: str, values: list | tuple) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise ValueError(f"sweep {name!r} has no values")


@dataclass
class Campaign:
    """A named set of runs: a workflow factory applied over a sweep grid.

    Args:
        name: campaign name (used in run ids).
        factory: ``f(**params) -> WorkflowSpec`` building one run's
            workflow from a parameter point.
        sweeps: swept parameters; the grid is their cartesian product.
        fixed: parameters passed to every run unchanged.
        seed: optional campaign seed, folded into every run id's
            statepoint hash (runs with different seeds never share an
            id, so they never replay each other's ledger entries).
        machine: optional machine label, folded into the hash the same
            way.
    """

    name: str
    factory: Callable[..., WorkflowSpec]
    sweeps: list[Sweep] = field(default_factory=list)
    fixed: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    machine: str | None = None

    def size(self) -> int:
        n = 1
        for s in self.sweeps:
            n *= len(s.values)
        return n

    def points(self) -> Iterator[dict[str, Any]]:
        """Parameter dicts for every grid point, in deterministic order."""
        if not self.sweeps:
            yield dict(self.fixed)
            return
        names = [s.name for s in self.sweeps]
        for combo in itertools.product(*(s.values for s in self.sweeps)):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            yield params

    def run_id(self, index: int, params: dict[str, Any]) -> str:
        """The content-addressed id of one grid point.

        ``<name>.<index>-<hash8>``: the signac-style statepoint hash of
        (params, seed, machine) namespaces the ordinal, so a resumed or
        renamed campaign can never replay the wrong cell's ledger entry
        — a point whose content changed hashes to a fresh id and simply
        misses the old completion record.
        """
        return statepoint_id(
            self.name, index, params, seed=self.seed, machine=self.machine
        )

    def runs(self) -> Iterator[tuple[str, dict[str, Any], WorkflowSpec]]:
        """(run_id, params, workflow) triples for the whole campaign."""
        for i, params in enumerate(self.points()):
            yield self.run_id(i, params), params, self.factory(**params)


class CampaignRunner:
    """Executes a campaign's grid in order, with a crash-recoverable ledger.

    A thin client: a :class:`~repro.journal.RunLedger` brackets each run
    and a serial :class:`~repro.campaign.executor.SupervisedExecutor` owns
    the attempts.  A runner pointed at the journal directory of a crashed
    predecessor *resumes* the campaign deterministically: settled runs
    are not re-executed — their journaled results are returned verbatim,
    marked ``replayed`` — and execution picks up at the first run without
    a completion record.

    A run whose ``execute`` raises is retried immediately (up to
    ``max_attempts`` total attempts, each failure journaled as
    ``run-failed``); a run that fails every attempt is *poisoned* —
    recorded in the ledger as ``run-poisoned`` and skipped, so one
    deterministically-crashing cell cannot wedge the grid, and a
    resumed runner skips it without re-executing anything.

    Args:
        campaign: the grid to execute.
        execute: ``f(run_id, params, workflow) -> dict`` running one
            point and returning a JSON-serializable result summary.
        journal: optional :class:`~repro.journal.JournalSpec`; without
            one the runner executes everything and remembers nothing.
        max_attempts: attempts per run before it is poisoned.
    """

    def __init__(
        self,
        campaign: Campaign,
        execute: Callable[[str, dict[str, Any], WorkflowSpec], dict],
        journal=None,
        max_attempts: int = 1,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.campaign = campaign
        self.execute = execute
        self.journal_spec = journal
        self.max_attempts = max_attempts
        self.results: list[dict[str, Any]] = []

    def run(self, stop_after: int | None = None) -> list[dict[str, Any]]:
        """Execute (or resume) the campaign; returns one dict per run.

        ``stop_after`` caps the number of runs *executed* this call
        (replayed completions do not count) — it models a crash between
        runs and is what the resume tests use to kill the runner at a
        chosen point.
        """
        # Serial mode: attempts run inline, back to back (backoff is never slept).
        executor = SupervisedExecutor(ExecutorSpec(workers=0, max_attempts=self.max_attempts))
        ledger = RunLedger(
            "run", self.journal_spec,
            campaign=self.campaign.name, size=self.campaign.size(),
        )
        self.results = []
        executed = 0
        try:
            ledger.open()
            for run_id, params, workflow in self.campaign.runs():
                replayed = ledger.replay(run_id)
                if replayed is not None:
                    status, result = replayed
                elif stop_after is not None and executed >= stop_after:
                    break
                else:
                    executed += 1
                    ledger.start(run_id, params)
                    [outcome] = executor.run(
                        [(run_id, (run_id, params, workflow))],
                        lambda point: self.execute(*point),
                    )
                    for failure in outcome.failures:
                        ledger.fail(run_id, failure.attempt, failure.detail)
                    if outcome.poisoned:
                        ledger.poison(run_id, [f.detail for f in outcome.failures])
                    else:
                        ledger.complete(run_id, outcome.result)
                    status, result = outcome.status, outcome.result
                self.results.append(
                    {"run_id": run_id, "params": params, "status": status,
                     "result": result, "replayed": replayed is not None}
                )
        finally:
            ledger.close()
        return self.results
