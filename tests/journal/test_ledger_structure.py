"""The campaign ledger exists once; the in-core profiler not at all.

AST walks over ``src/repro`` (docstrings and comments do not count), in
the style of ``tests/runtime/test_core_conformance.py``: a second
"does this directory already hold a journal" test, a second writer of
the ``run-*`` / ``cell-*`` bracket, or a returning ``CoreProfiler`` fails
here by name.  Plus the count the shared ledger exists for: a resumed
campaign reads every WAL directory once.
"""

import ast
import functools
import pathlib

import repro
import repro.journal.journal
import repro.journal.ledger
import repro.journal.resume
from repro.campaign import CampaignService, ExecutorSpec, TenantCell, TenantSpec, TenantsSpec
from repro.observability import FleetSpec, ObservabilitySpec
from repro.resilience.spec import QuarantineSpec

SRC = pathlib.Path(repro.__file__).parent
LEDGER_KINDS = {
    "run-started", "run-failed", "run-completed", "run-poisoned",
    "cell-started", "cell-completed", "cell-poisoned",
}


@functools.cache
def modules():
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


def identifiers(node):
    """Every name a node binds, imports or refers to."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield from (node.name.rpartition(".")[2], node.asname)
    elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.keyword):
        yield node.arg


def modules_where(predicate):
    return sorted({
        module for module, tree in modules().items()
        for node in ast.walk(tree) if predicate(node)
    })


def test_only_the_journal_package_asks_whether_a_directory_holds_segments():
    hits = modules_where(lambda node: "list_segment_indices" in identifiers(node))
    assert hits and all(module.startswith("journal/") for module in hits), hits


def test_journal_reopen_is_called_from_the_ledger_and_the_runtime_core_only():
    def is_reopen(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reopen"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Journal"
        )

    assert modules_where(is_reopen) == ["journal/ledger.py", "runtime/core.py"]


def test_the_run_and_cell_bracket_is_written_by_the_ledger_only():
    def appends_a_ledger_kind(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in LEDGER_KINDS
        )

    # RunLedger builds its kinds from the noun, so not even it spells one out.
    assert modules_where(appends_a_ledger_kind) == []
    ledger = modules()["journal/ledger.py"]
    assert [n.name for n in ast.walk(ledger) if isinstance(n, ast.ClassDef)] == [
        "AppliedOpsLedger", "ResumableJournal", "RunLedger",
    ]


def test_no_in_core_profiler_identifier_remains():
    gone = {"CoreProfiler", "ProfileSpec", "maybe_sample"}
    assert modules_where(lambda node: gone & set(identifiers(node))) == []
    assert not (SRC / "profiler" / "sampling.py").exists()


# -- read once -------------------------------------------------------------------- #
HEALTHY = ("alpha", "bravo", "charlie", "delta", "echo")


def fleet_service(root):
    """perfbench's tiny ``campaign_fleet`` shape: five healthy tenants and a
    crash-looping one, six cells each, fleet plane on."""
    tenants = tuple(TenantSpec(t, quota_cores=32, max_queue=6) for t in HEALTHY + ("poison",))

    def run_cell(cell, _lease):
        if cell.tenant_id == "poison":
            raise RuntimeError("always raises")
        return {"makespan": float(cell.params["n"])}

    service = CampaignService(
        TenantsSpec(
            nodes=8, cores_per_node=16, tenants=tenants,
            executor=ExecutorSpec(workers=0, max_attempts=2, backoff_base=0.0, jitter=0.0),
            breaker=QuarantineSpec(failures=4, window=100.0, cooldown=50.0),
        ),
        journal_root=root, run_cell=run_cell,
        observability=ObservabilitySpec(fleet=FleetSpec()),
    )
    for n in range(6):
        for tenant in tenants:
            service.submit(TenantCell(tenant.tenant_id, lambda **_: None, params={"n": n}, nprocs=8))
    return service


def test_a_resumed_campaign_reads_each_wal_directory_once(tmp_path, monkeypatch):
    root = str(tmp_path / "campaign")
    fleet_service(root).run_pending(stop_after=18)  # the supervisor dies at half

    reads: list[str] = []
    read_journal = repro.journal.resume.read_journal

    def counted(directory):
        reads.append(pathlib.Path(directory).relative_to(root).as_posix())
        return read_journal(directory)

    for module in (repro.journal.resume, repro.journal.journal, repro.journal.ledger):
        monkeypatch.setattr(module, "read_journal", counted)
    resumed = fleet_service(root)
    records = resumed.run_pending()
    assert sum(r["replayed"] for r in records) == 16 and len(records) == 30
    # 7 reads; the pre-ledger service read 13 (ledger scan, then Journal.reopen).
    assert sorted(reads) == sorted(HEALTHY + ("poison", "__fleet__/wal"))
