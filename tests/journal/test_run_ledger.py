"""One campaign ledger, two clients: crash anywhere, resume, nothing runs twice.

``CampaignRunner`` (noun ``run``) and ``CampaignService`` (noun ``cell``)
both journal through :class:`repro.journal.RunLedger`.  The sweep kills
each client after every possible number of executed units, resumes with
a fresh client, and requires the outcome of the uninterrupted run.  The
WAL record shapes of the uninterrupted run are pinned to literals
captured on the tree *before* the shared ledger existed, so "no format
change" is checked here, not asserted.
"""

import os
from collections import Counter

import pytest

from repro.campaign import CampaignService, ExecutorSpec, TenantCell, TenantSpec, TenantsSpec
from repro.errors import JournalError
from repro.journal import JournalSpec, RunLedger, read_journal
from repro.observability import FleetSpec, ObservabilitySpec, read_watch_stream
from repro.resilience.spec import QuarantineSpec
from repro.wms import Campaign, CampaignRunner, Sweep, TaskSpec, WorkflowSpec

ATTEMPTS = 2


def workflow(n=1):
    return WorkflowSpec("W", [TaskSpec("T", lambda: None, nprocs=n)], [])


class RunnerClient:
    """Five runs; n=2 always raises (poisoned), n=4 fails its first attempt."""

    units = 5
    always_reclaimed = "campaign"  # the runner claims its WAL even to replay everything

    def __init__(self, root):
        self.root = str(root)
        self.calls: list[str] = []
        self.campaign = Campaign("C", workflow, sweeps=[Sweep("n", [1, 2, 3, 4, 5])])

    def execute(self, run_id, params, _workflow):
        self.calls.append(run_id)
        if params["n"] == 2 or (params["n"] == 4 and self.calls.count(run_id) == 1):
            raise RuntimeError(f"n={params['n']} failed")
        return {"n": params["n"], "score": params["n"] * 10}

    def life(self, stop_after=None):
        """One process lifetime: {id: (status, result, replayed)}."""
        runner = CampaignRunner(
            self.campaign, self.execute,
            journal=JournalSpec(dir=self.root, fsync="off"), max_attempts=ATTEMPTS,
        )
        return {
            r["run_id"]: (r["status"], r["result"], r["replayed"])
            for r in runner.run(stop_after=stop_after)
        }

    def wal_dirs(self):
        return {"campaign": self.root}

    def watch(self):
        return None


class ServiceClient:
    """Two tenants x three cells, fleet plane on; b's n=2 always raises
    (poisoned), a's n=3 fails its first attempt."""

    units = 6
    always_reclaimed = "__fleet__/wal"  # tenant WALs are claimed by their first fresh cell

    def __init__(self, root):
        self.root = str(root)
        self.calls: list[str] = []
        self.service = None

    def run_cell(self, cell, _lease):
        cell_id = f"{cell.tenant_id}-{cell.params['n']}"
        self.calls.append(cell_id)
        first = self.calls.count(cell_id) == 1
        if cell_id == "b-2" or (cell_id == "a-3" and first):
            raise RuntimeError(f"{cell_id} failed")
        return {"n": cell.params["n"], "makespan": float(cell.params["n"])}

    def life(self, stop_after=None):
        self.service = service = CampaignService(
            TenantsSpec(
                nodes=2, cores_per_node=4,
                tenants=(TenantSpec("a", max_queue=3), TenantSpec("b", max_queue=3)),
                executor=ExecutorSpec(max_attempts=ATTEMPTS, backoff_base=0.0, jitter=0.0),
                breaker=QuarantineSpec(failures=50, window=100.0, cooldown=1.0),
            ),
            journal_root=self.root, run_cell=self.run_cell,
            observability=ObservabilitySpec(fleet=FleetSpec()),
        )
        for n in (1, 2, 3):
            for tenant in ("a", "b"):
                service.submit(TenantCell(
                    tenant, workflow, params={"n": n}, cell_id=f"{tenant}-{n}",
                ))
        return {
            r["cell_id"]: (r["status"], r["result"], r["replayed"])
            for r in service.run_pending(stop_after=stop_after)
        }

    def wal_dirs(self):
        return {
            name: os.path.join(self.root, *name.split("/"))
            for name in ("a", "b", "__fleet__/wal")
        }

    def watch(self):
        return read_watch_stream(self.service.watch_path)


CLIENTS = pytest.mark.parametrize("make", [RunnerClient, ServiceClient],
                                  ids=["CampaignRunner", "CampaignService"])


def shapes(directory):
    """The WAL as ``(kind, sorted payload keys)``, framing fields aside."""
    return [
        (rec["kind"], sorted(set(rec) - {"seq", "kind", "e"}))
        for rec in read_journal(directory).records
    ]


@CLIENTS
def test_crash_anywhere_then_resume_matches_the_uninterrupted_run(make, tmp_path):
    reference = make(tmp_path / "reference")
    expected = {uid: outcome[:2] for uid, outcome in reference.life().items()}
    assert sorted(status for status, _ in expected.values()).count("poisoned") == 1
    runs_per_unit = Counter(reference.calls)
    assert sum(runs_per_unit.values()) == reference.units + 2  # two failed attempts

    for k in range(reference.units + 1):
        client = make(tmp_path / f"crash-after-{k}")
        first = client.life(stop_after=k)
        assert len(first) == k and not any(replayed for *_, replayed in first.values())
        before = list(client.calls)
        second = client.life()  # a fresh runner / service over the same directories

        assert {uid: outcome[:2] for uid, outcome in second.items()} == expected, k
        assert {uid for uid, (*_, replayed) in second.items() if replayed} == set(first), k
        # Nothing — a poisoned unit least of all — executes in both lives.
        assert Counter(client.calls) == runs_per_unit, k
        assert not set(before) & set(client.calls[len(before):]), k
        for name, directory in client.wal_dirs().items():
            if not os.path.isdir(directory):
                continue  # the first life never reached this tenant
            state = read_journal(directory)
            written_by = sorted({rec["e"] for rec in state.records})
            assert written_by == list(range(1, state.epoch + 1)), (k, name)
            # Every reclaimed directory went to the next fencing epoch.
            resumed = sum(rec["kind"] == "resume" for rec in state.records)
            assert state.epoch == 1 + resumed, (k, name)
        assert read_journal(client.wal_dirs()[client.always_reclaimed]).epoch == 2, k
        assert client.watch() == reference.watch(), k


# Captured at the parent of the commit that introduced RunLedger; the meta
# record has carried the journal spec since Journal.open writes it.
RUN_STARTED = ("run-started", ["params", "run_id"])
RUN_FAILED = ("run-failed", ["attempt", "error", "run_id"])
RUN_COMPLETED = ("run-completed", ["result", "run_id"])
RUN_POISONED = ("run-poisoned", ["failures", "run_id"])
CELL_STARTED = ("cell-started", ["cell_id", "params"])
CELL_COMPLETED = ("cell-completed", ["cell_id", "result"])
CELL_POISONED = ("cell-poisoned", ["cell_id", "failures"])
PINNED = {
    "campaign": [
        ("meta", ["campaign", "journal_spec", "size"]),
        RUN_STARTED, RUN_COMPLETED,
        RUN_STARTED, RUN_FAILED, RUN_FAILED, RUN_POISONED,
        RUN_STARTED, RUN_COMPLETED,
        RUN_STARTED, RUN_FAILED, RUN_COMPLETED,
        RUN_STARTED, RUN_COMPLETED,
    ],
    "a": [("meta", ["journal_spec", "tenant"])] + [CELL_STARTED, CELL_COMPLETED] * 3,
    "b": [
        ("meta", ["journal_spec", "tenant"]),
        CELL_STARTED, CELL_COMPLETED, CELL_STARTED, CELL_POISONED, CELL_STARTED, CELL_COMPLETED,
    ],
    # The fleet plane journals through Journal.barrier: full once, then deltas.
    "__fleet__/wal": [
        ("meta", ["journal_spec", "scope"]), ("barrier", ["state", "t"]),
        *[("barrier", ["delta", "t"])] * 5,
    ],
}


@CLIENTS
def test_uninterrupted_wal_shapes_are_pinned(make, tmp_path):
    client = make(tmp_path / "wal")
    client.life()
    for name, directory in client.wal_dirs().items():
        assert shapes(directory) == PINNED[name], name
    if isinstance(client, RunnerClient):
        poisoned = [r for r in read_journal(client.root).records if r["kind"] == "run-poisoned"]
        assert poisoned[0]["failures"] == ["RuntimeError: n=2 failed"] * ATTEMPTS
    else:
        [poisoned] = [r for r in read_journal(client.wal_dirs()["b"]).records
                      if r["kind"] == "cell-poisoned"]
        assert poisoned["failures"] == [
            [attempt, "error", "RuntimeError: b-2 failed"] for attempt in (1, 2)
        ]


def test_ledger_without_a_journal_remembers_nothing(tmp_path):
    for spec in (None, JournalSpec(dir=str(tmp_path / "off"), enabled=False)):
        ledger = RunLedger("run", spec, campaign="C")
        assert ledger.open() is None
        ledger.start("r0", {})
        ledger.complete("r0", {"ok": True})
        assert ledger.replay("r0") is None and ledger.records == []
        ledger.close()
    assert not (tmp_path / "off").exists()


def test_reopened_ledger_reads_again_after_its_own_appends(tmp_path):
    """The state read at construction serves one reopen only."""
    spec = JournalSpec(dir=str(tmp_path / "wal"), fsync="off")
    ledger = RunLedger("run", spec, campaign="C")
    for life in range(3):  # open/close three times through the same object
        ledger.start(f"r{life}", {})
        ledger.complete(f"r{life}", life)
        ledger.close()
    state = read_journal(spec.dir)
    assert state.epoch == 3
    assert [rec["seq"] for rec in state.records] == list(range(1, len(state.records) + 1))
    assert RunLedger("run", spec).completed == {"r0": 0, "r1": 1, "r2": 2}


# -- the lease leak --------------------------------------------------------------- #
def corrupt_first_record(directory):
    """Flip a byte inside the first record of segment 0 (not the tail)."""
    path = os.path.join(directory, "wal-000000.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert len(lines) > 1
    lines[0] = lines[0].replace('"kind"', '"kinb"', 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def block_epoch_claim(directory):
    """Make the directory unclaimable: the epoch bump cannot write its temp file."""
    os.mkdir(os.path.join(directory, "EPOCH.tmp"))


@pytest.mark.parametrize("damage, error", [
    (corrupt_first_record, JournalError),
    (block_epoch_claim, OSError),  # readable but unclaimable: leaked the lease before
], ids=["corrupt-record", "unclaimable-directory"])
def test_a_tenant_wal_that_cannot_be_reopened_strands_no_lease(tmp_path, damage, error):
    client = ServiceClient(tmp_path / "svc")
    client.life(stop_after=2)  # a-1 and b-1 are durable; both tenants hold a WAL
    damage(client.wal_dirs()["b"])
    with pytest.raises(error):
        client.life()
    arbiter = client.service.arbiter
    assert arbiter.active() == []
    assert arbiter.free_nodes == client.service.spec.nodes
