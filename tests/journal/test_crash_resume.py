"""Kill → resume equivalence on the Gray-Scott experiment.

The acceptance bar for crash recovery: a run that loses its controller
mid-campaign and resumes from the journal must be *bit-identical* — by
:func:`~repro.journal.scenario_fingerprint` — to an uninterrupted
reference.  The reference schedules the same crash requests but ignores
them (``ignore_crash_requests=True``), which keeps the event-queue
sequence numbers aligned without ever crashing.
"""

import json
import os
import shutil
from dataclasses import asdict

import pytest

from repro.core.actuation import ActuationStage
from repro.core.lowlevel import PHASE_ACQUIRE, ActionPlan, LowLevelOp
from repro.errors import JournalError
from repro.experiments import run_gray_scott_experiment
from repro.journal import (
    AppliedOpsLedger,
    Journal,
    JournalSpec,
    read_journal,
    scenario_fingerprint,
)
from repro.journal import journal as journal_module
from repro.journal.snapshot import load_latest_snapshot, snapshot_path, write_snapshot
from repro.journal.wal import list_segment_indices, read_segment, segment_path
from repro.runtime import DyflowOrchestrator
from repro.telemetry import TelemetrySpec
from tests.journal.test_crash_sweep import run as run_full_stack
from tests.journal.test_journal import damage_file
from tests.resilience.conftest import flaky_app_factory, make_sim, make_task, steady_app_factory

CHAOS_XML = """
  <resilience>
    <retry max-retries="8" backoff-base="1.0" jitter="0.25"/>
    <faults task-crash-mtbf="400.0" orch-crash-mtbf="350.0" msg-drop-prob="0.02"/>
  </resilience>"""


def jspec(tmp_path, **kw):
    kw.setdefault("fsync", "off")
    return JournalSpec(dir=str(tmp_path / "journal"), **kw)


class TestBarrierCrashResume:
    def test_two_crashes_resume_bit_identical(self, tmp_path):
        crash_times = (300.0, 700.0)
        ref = run_gray_scott_experiment(
            crash_times=crash_times, ignore_crash_requests=True
        )
        res = run_gray_scott_experiment(
            journal=jspec(tmp_path), crash_times=crash_times
        )
        assert res.meta["crashes"] == [300.0, 700.0]
        assert not ref.meta["crashes"]
        assert res.makespan == ref.makespan
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)
        # A dead controller's Monitor clients wake nothing: each watched
        # channel keeps one reader, the live controller's, as in the reference.
        hub = res.launcher.hub
        watched = {n: len(hub.get_channel(n)._watchers) for n in hub.channels()}
        assert {n: w for n, w in watched.items() if w} == {
            f"tau-GS-WORKFLOW-{t}": 1 for t in ("FFT", "Isosurface", "PDF_Calc", "Rendering")
        }
        fs = hub.filesystem
        assert all(len(w) == 1 for w in fs._path_watches.values())
        assert len(fs._creation_watches) == len(ref.launcher.hub.filesystem._creation_watches)

    def test_resume_bookkeeping(self, tmp_path):
        spec = jspec(tmp_path)
        res = run_gray_scott_experiment(journal=spec, crash_times=(300.0,))
        state = read_journal(spec.dir)
        # One crash → one takeover → epoch 2 (+1 for the final close path
        # never reclaims; the epoch counts writers, not syncs).
        assert state.epoch == 2
        crash_points = res.trace.points_for(label="orchestrator-crash")
        resume_points = res.trace.points_for(label="orchestrator-resume")
        assert len(crash_points) == 1 and len(resume_points) == 1
        assert all(p.category == "journal" for p in crash_points + resume_points)
        assert resume_points[0].meta["epoch"] == 2

    def test_snapshot_compaction_does_not_change_the_run(self, tmp_path):
        # Aggressive snapshotting (every 5 barriers) exercises resume
        # from snapshot + short suffix instead of full-log replay.
        ref = run_gray_scott_experiment(
            crash_times=(500.0,), ignore_crash_requests=True
        )
        res = run_gray_scott_experiment(
            journal=jspec(tmp_path, snapshot_every=5), crash_times=(500.0,)
        )
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)

    def test_crash_on_a_snapshot_aligned_barrier(self, tmp_path):
        # snapshot_every=1 makes *every* barrier a snapshot barrier, so
        # the crash record seals the barrier into the compacted segment
        # and the replayable suffix holds no barrier at all — resume must
        # fall back to the barrier state embedded in the snapshot.
        spec = jspec(tmp_path, snapshot_every=1)
        ref = run_gray_scott_experiment(
            crash_times=(500.0,), ignore_crash_requests=True
        )
        res = run_gray_scott_experiment(journal=spec, crash_times=(500.0,))
        assert res.meta["crashes"] == [500.0]
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)
        assert read_journal(spec.dir).snapshot_state["barrier"] is not None


def every_record(journal_dir) -> list[dict]:
    """Every record of every segment on disk, before the reader filters any."""
    return [
        rec for idx in list_segment_indices(str(journal_dir))
        for rec in read_segment(segment_path(str(journal_dir), idx))
    ]


class TestSnapshotFiles:
    """The newest ``snapshot-NNNNNN.json`` is the checkpoint: no pointer
    file, no ``snapshot-ref`` record, nothing recovery does not read."""

    def test_a_full_stack_run_leaves_the_wal_and_one_snapshot(self, tmp_path):
        journal_dir = tmp_path / "wal"
        res = run_full_stack(journal_dir, crash_times=(300.0, 615.0))
        assert res.meta["crashes"] == [300.0, 615.0]
        names = os.listdir(journal_dir)
        snapshots = [n for n in names if n.startswith("snapshot-") and n.endswith(".json")]
        segments = [n for n in names if n.startswith("wal-") and n.endswith(".jsonl")]
        assert len(snapshots) == 1 and segments
        assert sorted(names) == sorted(["EPOCH", *snapshots, *segments])
        assert "snapshot-ref" not in {r["kind"] for r in every_record(journal_dir)}
        assert set(load_latest_snapshot(str(journal_dir))["state"]) == {
            "t", "server", "decision", "plans", "barrier", "journal_spec",
        }

    def test_interrupted_compactions_resume_to_the_reference(self, tmp_path, monkeypatch):
        sealed = {"after": 0}  # the first segment the previous snapshot did not cover

        def compaction_interrupted(directory, index, state, segment_after, seq):
            """As if every writer died between the rename and the deletes:
            the previous snapshot and its segments survive each compaction."""
            paths = [snapshot_path(directory, index - 1)] + [
                segment_path(directory, i) for i in range(sealed["after"], segment_after)
            ]
            older = {}
            for path in filter(os.path.exists, paths):
                with open(path, "rb") as fh:
                    older[path] = fh.read()
            size = write_snapshot(directory, index, state, segment_after, seq)
            for path, data in older.items():
                with open(path, "wb") as fh:
                    fh.write(data)
            sealed["after"] = segment_after
            return size

        monkeypatch.setattr(journal_module, "write_snapshot", compaction_interrupted)
        crash_times = (300.0, 700.0)
        ref = run_gray_scott_experiment(crash_times=crash_times, ignore_crash_requests=True)
        spec = jspec(tmp_path, snapshot_every=5)
        res = run_gray_scott_experiment(journal=spec, crash_times=crash_times)
        assert res.meta["crashes"] == list(crash_times)
        newest = load_latest_snapshot(spec.dir)
        assert os.path.exists(snapshot_path(spec.dir, newest["index"] - 1))
        assert list_segment_indices(spec.dir)[0] < newest["segment_after"]
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)

    def test_a_journal_in_the_pointer_layout_resumes(self, tmp_path, monkeypatch):
        """The writer before this layout: a ``CHECKPOINT`` pointer beside each
        snapshot, a ``snapshot-ref`` record after it, and a ``launcher``
        audit section in it.  Such a directory still reads and resumes."""
        snapshot = Journal.snapshot

        def snapshot_like_the_pointer_writer(journal, state):
            audit = {"rm": {}, "quarantine": None, "retries": {}}
            index = snapshot(journal, {**state, "launcher": audit})
            framed = load_latest_snapshot(journal.spec.dir)
            pointer = {"snapshot": index, "segment": framed["segment_after"], "seq": framed["seq"]}
            with open(os.path.join(journal.spec.dir, "CHECKPOINT"), "w", encoding="utf-8") as fh:
                json.dump(pointer, fh)
            journal.append("snapshot-ref", index=index, bytes=len(json.dumps(framed)))
            return index

        monkeypatch.setattr(Journal, "snapshot", snapshot_like_the_pointer_writer)
        crash_times = (300.0, 707.0)
        ref = run_gray_scott_experiment(crash_times=crash_times, ignore_crash_requests=True)
        spec = jspec(tmp_path)
        res = run_gray_scott_experiment(journal=spec, crash_times=crash_times)
        assert res.meta["crashes"] == list(crash_times)
        assert os.path.exists(os.path.join(spec.dir, "CHECKPOINT"))
        assert "snapshot-ref" in {r["kind"] for r in every_record(spec.dir)}
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)

    def test_a_damaged_newest_snapshot_refuses_to_resume(self, tmp_path):
        spec = jspec(tmp_path / "crashed", snapshot_every=5)
        run_gray_scott_experiment(journal=spec, crash_times=(300.0,), resume_on_crash=False)
        newest = load_latest_snapshot(spec.dir)["index"]
        for damage in ("bit-flip", "high-bit-flip", "truncated", "empty"):
            copy = str(tmp_path / damage)
            shutil.copytree(spec.dir, copy)
            damage_file(snapshot_path(copy, newest), damage)
            _eng, _m, sav = make_sim([make_task("B", steady_app_factory())])
            with pytest.raises(JournalError, match="corrupt snapshot file"):
                DyflowOrchestrator(sav).resume_from(copy)

    def test_a_resume_before_any_snapshot_keeps_the_spec(self, tmp_path):
        # Fewer barriers than snapshot_every: only the meta record holds the spec.
        spec = jspec(tmp_path, snapshot_every=10_000)
        res = run_gray_scott_experiment(journal=spec, crash_times=(300.0,))
        assert res.meta["crashes"] == [300.0]
        assert not [n for n in os.listdir(spec.dir) if n.startswith("snapshot-")]
        resumes = [r for r in read_journal(spec.dir).records if r["kind"] == "resume"]
        assert [r["journal_spec"] for r in resumes] == [asdict(spec)]


class TestChaosCrashResume:
    def test_stochastic_orchestrator_crashes_resume_bit_identical(self, tmp_path):
        kw = dict(seed=3, xml_extra=CHAOS_XML)
        ref = run_gray_scott_experiment(ignore_crash_requests=True, **kw)
        res = run_gray_scott_experiment(journal=jspec(tmp_path), **kw)
        assert res.meta["crashes"], "the fault model never crashed the controller"
        assert res.makespan == ref.makespan
        assert scenario_fingerprint(res) == scenario_fingerprint(ref)


class TestHardCrashExactlyOnce:
    def test_mid_plan_hard_crash_applies_each_op_exactly_once(self, tmp_path, monkeypatch):
        # Find the first plan's actuation window, then die *inside* it —
        # no barrier alignment, abort mid-plan — and resume.  Bit-identity
        # is out of scope here; the contract is exactly-once actuation.
        ref = run_gray_scott_experiment()
        plan0 = ref.plans[0]
        assert plan0.execution_start is not None and plan0.execution_end is not None
        t_mid = (plan0.execution_start + plan0.execution_end) / 2.0
        monkeypatch.setattr(
            DyflowOrchestrator, "request_crash", DyflowOrchestrator.hard_crash
        )
        spec = jspec(tmp_path, fsync="always")
        res = run_gray_scott_experiment(journal=spec, crash_times=(t_mid,))
        assert res.meta["crashes"] == [t_mid]

        records = []
        state = read_journal(spec.dir)
        records.extend(state.records)
        if state.snapshot_state is not None:
            # The post-resume journal may have compacted; the exactly-once
            # check needs the full op history, so read every segment raw.
            records = every_record(spec.dir)
        completed = [r["op_key"] for r in records if r["kind"] == "op-completed"]
        issued = {r["op_key"] for r in records if r["kind"] == "op-issued"}
        assert len(completed) == len(set(completed)), "an op completed twice"
        assert set(completed) <= issued
        # Every issued op eventually completed (skips re-journal completion).
        assert issued <= set(completed)

        # The cluster stayed consistent and the workflow actually finished.
        res.launcher.rm.check_invariants()
        assert all(p.execution_end is not None for p in res.plans)
        gs = res.launcher.record("GrayScott")
        assert not gs.is_active and gs.incarnations > 0

    def test_second_hard_crash_inside_the_resumed_plan(self, tmp_path, monkeypatch):
        # Die mid-plan, resume, die again while the *resumed* plan is
        # launching a task, resume again.  ``resume_plan`` and ``execute``
        # share one loop, so the resumed plan honours the second abort and
        # leaves the same telemetry a plan that never crashed does.
        monkeypatch.setattr(
            DyflowOrchestrator, "request_crash", DyflowOrchestrator.hard_crash
        )
        ref = run_gray_scott_experiment()
        plan0 = ref.plans[0]
        t1 = (plan0.execution_start + plan0.execution_end) / 2.0
        once = run_gray_scott_experiment(
            journal=jspec(tmp_path / "once"), crash_times=(t1,)
        )
        # The first start op the resumed plan ran: the second crash falls
        # inside its launch delay, after the launcher counted the launch.
        start = next(
            op for op in once.plans[0].ordered_ops()
            if op.op == "start_task" and op.exec_start is not None
        )
        assert start.exec_start >= t1
        t2 = (start.exec_start + start.exec_end) / 2.0

        # Collect the op bracket as it is written: snapshots compact the
        # early segments away before the run ends.
        ops_journaled = []
        append = Journal.append

        def recording_append(journal, kind, **payload):
            seq = append(journal, kind, **payload)  # raises for a dead controller
            if kind in ("op-issued", "op-completed"):
                ops_journaled.append((kind, payload["op_key"]))
            return seq

        monkeypatch.setattr(Journal, "append", recording_append)
        spec = jspec(tmp_path / "twice")
        res = run_gray_scott_experiment(
            journal=spec, crash_times=(t1, t2), telemetry=TelemetrySpec()
        )
        assert res.meta["crashes"] == [t1, t2]
        assert read_journal(spec.dir).epoch == 3

        # Exactly-once: nothing was launched twice, the interrupted launch
        # was recognised by its effect, and the ledger closed every op once.
        incarnations = {k: r.incarnations for k, r in res.launcher.records.items()}
        assert incarnations == {k: r.incarnations for k, r in ref.launcher.records.items()}
        skipped = res.trace.points_for(label=f"op-skipped:{start.task}")
        assert [p.time for p in skipped] == [t2]
        assert skipped[0].category == "journal" and skipped[0].meta["plan"] == plan0.plan_id
        completed = [key for kind, key in ops_journaled if kind == "op-completed"]
        issued = {key for kind, key in ops_journaled if kind == "op-issued"}
        assert len(completed) == len(set(completed)), "an op completed twice"
        assert set(completed) == issued == {
            op.op_key for p in res.plans for op in p.ordered_ops()
        }
        res.launcher.rm.check_invariants()
        assert all(p.execution_end is not None for p in res.plans)

        # Telemetry: every plan — the twice-resumed one too — has one
        # plan.response sample and one finished actuation.plan span whose
        # children are the ops that life ran.
        tracer = res.tracer
        assert tracer.metrics.lookup("plan.response").count == len(res.plans)
        assert tracer.metrics.lookup("stage.actuation.latency").count == len(res.plans)
        finished = {s.attrs["plan"]: s for s in tracer.finished_spans(name="actuation.plan")}
        assert sorted(finished) == sorted(p.plan_id for p in res.plans)
        last_life = finished[plan0.plan_id]
        assert last_life.start == t2
        children = tracer.children_of(last_life)
        assert children and all(c.name.startswith("op.") for c in children)
        assert start.task not in [c.attrs["task"] for c in children]  # skipped, not re-run

    def test_an_aborted_stage_applies_nothing_on_either_entry_point(self):
        # ``abort_requested`` is the controller process being dead: neither
        # a fresh nor a resumed plan may touch the launcher after it.
        for entry in ("execute", "resume_plan"):
            eng, _m, sav = make_sim(
                [make_task("B", flaky_app_factory(fail_incarnations=0, total_steps=5),
                           autostart=False)],
            )
            sav.launch_workflow()
            eng.run(until=1.0)
            plan = ActionPlan(
                plan_id="p1", workflow_id="W", created=eng.now, trigger_time=eng.now,
                ops=[LowLevelOp("start_task", "B", PHASE_ACQUIRE,
                                resources=sav.rm.plan_placement(8))],
            )
            act = ActuationStage(sav)
            act.abort_requested = True
            done = []
            args = (plan,) if entry == "execute" else (plan, AppliedOpsLedger())
            eng.run_process(getattr(act, entry)(*args, on_done=done.append))
            eng.run()
            assert sav.record("B").incarnations == 0, entry
            assert not done and plan.execution_end is None and not act.executed_plans
