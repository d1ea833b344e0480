"""Journal facade: sequencing, snapshots, reopen semantics, metrics."""

import os
from dataclasses import asdict

import pytest

from repro.errors import JournalError, StaleWriterError
from repro.journal import Journal, JournalSpec, read_journal
from repro.journal.snapshot import snapshot_path
from repro.journal.wal import encode_record, segment_path
from repro.telemetry import MetricsRegistry


def spec(tmp_path, **kw):
    kw.setdefault("fsync", "off")
    return JournalSpec(dir=str(tmp_path / "j"), **kw)


class TestWriting:
    def test_seq_is_monotonic_across_kinds(self, tmp_path):
        j = Journal.open(spec(tmp_path), workflow="W")  # seq 1: its meta record
        assert j.seq == 1
        assert j.append("obs", env={}) == 2
        assert j.append("barrier", t=1.0, state={}) == 3
        j.close()
        state = read_journal(j.spec.dir)
        assert [r["seq"] for r in state.records] == [1, 2, 3]
        assert state.last_seq == 3

    def test_payload_flattens_to_top_level(self, tmp_path):
        j = Journal.open(spec(tmp_path))
        j.append("obs", env={"k": 1}, t=2.5)
        j.close()
        [_meta, rec] = read_journal(j.spec.dir).records
        assert rec["env"] == {"k": 1}
        assert rec["t"] == 2.5
        assert rec["kind"] == "obs"
        assert rec["e"] == 1

    def test_the_first_record_is_meta_with_the_spec(self, tmp_path):
        s = spec(tmp_path, batch_every=7)
        Journal.open(s, workflow="W", t=0.0).close()
        [meta] = read_journal(s.dir).records
        assert (meta["kind"], meta["seq"]) == ("meta", 1)
        assert (meta["workflow"], meta["t"]) == ("W", 0.0)
        # The directory is where a reader finds the journal: not persisted.
        assert meta["journal_spec"] == {k: v for k, v in asdict(s).items() if k != "dir"}

    def test_open_refuses_populated_dir(self, tmp_path):
        s = spec(tmp_path)
        Journal.open(s).close()
        with pytest.raises(JournalError, match="reopen"):
            Journal.open(s)

    def test_append_after_close_raises(self, tmp_path):
        j = Journal.open(spec(tmp_path))
        j.close()
        assert j.closed
        with pytest.raises(JournalError):
            j.append("obs")


class TestSnapshots:
    def test_snapshot_compacts_the_read_path(self, tmp_path):
        j = Journal.open(spec(tmp_path))
        for i in range(5):
            j.append("obs", x=i)
        j.snapshot({"server": {"n": 5}})
        j.append("obs", x=5)
        j.close()
        state = read_journal(j.spec.dir)
        assert state.snapshot_state["server"] == {"n": 5}
        # Only the post-snapshot suffix replays: the final obs, never the
        # meta record or the five compacted obs.
        assert [(r["kind"], r["x"]) for r in state.records] == [("obs", 5)]

    def test_latest_snapshot_wins(self, tmp_path):
        j = Journal.open(spec(tmp_path))
        j.append("obs", x=0)
        j.snapshot({"gen": 1})
        j.append("obs", x=1)
        j.snapshot({"gen": 2})
        j.close()
        state = read_journal(j.spec.dir)
        assert state.snapshot_state["gen"] == 2
        assert state.next_snapshot == 2


def two_snapshot_journal(s) -> dict[str, bytes]:
    """Snapshots 0 and 1 with an obs after each; returns the files the
    second snapshot's compaction deleted, as they were before it."""
    j = Journal.open(s)
    j.append("obs", x=0)
    j.snapshot({"gen": 1})
    j.append("obs", x=1)
    j.sync()
    compacted = {}
    for path in (snapshot_path(s.dir, 0), segment_path(s.dir, 1)):
        with open(path, "rb") as fh:
            compacted[path] = fh.read()
    j.snapshot({"gen": 2})
    j.append("obs", x=2)
    j.close()
    return compacted


class TestSnapshotFiles:
    """The newest ``snapshot-NNNNNN.json`` is the checkpoint: no pointer file."""

    def test_the_directory_holds_one_snapshot_and_no_pointer(self, tmp_path):
        s = spec(tmp_path)
        two_snapshot_journal(s)
        assert sorted(os.listdir(s.dir)) == ["EPOCH", "snapshot-000001.json", "wal-000002.jsonl"]

    def test_an_interrupted_compaction_leaves_the_newest_snapshot_in_charge(self, tmp_path):
        s = spec(tmp_path)
        for path, data in two_snapshot_journal(s).items():  # the deletes never ran
            with open(path, "wb") as fh:
                fh.write(data)
        state = read_journal(s.dir)
        assert state.snapshot_state["gen"] == 2 and state.next_snapshot == 2
        assert [r["x"] for r in state.records] == [2]
        j = Journal.reopen(s.dir, state=state)
        j.snapshot({"gen": 3})  # ... and the next snapshot finishes the job
        j.close()
        assert sorted(os.listdir(s.dir)) == ["EPOCH", "snapshot-000002.json", "wal-000004.jsonl"]

    def test_a_leftover_temp_file_is_ignored(self, tmp_path):
        s = spec(tmp_path)
        two_snapshot_journal(s)
        with open(snapshot_path(s.dir, 7) + ".tmp", "w", encoding="utf-8") as fh:
            fh.write("torn")
        state = read_journal(s.dir)
        assert state.snapshot_state["gen"] == 2 and state.next_snapshot == 2

    @pytest.mark.parametrize("damage", ["bit-flip", "high-bit-flip", "truncated", "empty"])
    def test_a_damaged_newest_snapshot_is_refused(self, tmp_path, damage):
        s = spec(tmp_path)
        compacted = two_snapshot_journal(s)
        older = snapshot_path(s.dir, 0)
        with open(older, "wb") as fh:  # an intact older snapshot is no fallback
            fh.write(compacted[older])
        damage_file(snapshot_path(s.dir, 1), damage)
        with pytest.raises(JournalError, match="corrupt snapshot file"):
            read_journal(s.dir)


def damage_file(path: str, how: str) -> None:
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if how in ("bit-flip", "high-bit-flip"):
        data[len(data) // 2] ^= 0x80 if how == "high-bit-flip" else 0x01
    elif how == "truncated":
        data = data[: len(data) // 2]
    else:
        data = bytearray()
    with open(path, "wb") as fh:
        fh.write(bytes(data))


class TestReopen:
    def test_reopen_bumps_epoch_and_continues_seq(self, tmp_path):
        s = spec(tmp_path)
        j1 = Journal.open(s, workflow="W")
        j1.append("obs", x=0)
        j1.close()
        j2 = Journal.reopen(s.dir)
        assert j2.epoch == 2
        assert j2.append("obs", x=1) == 4  # 3 was the auto "resume" record
        j2.close()
        state = read_journal(s.dir)
        assert [r["kind"] for r in state.records] == ["meta", "obs", "resume", "obs"]
        assert state.epoch == 2

    def test_reopen_reuses_persisted_spec(self, tmp_path):
        s = spec(tmp_path, fsync="off", batch_every=7, snapshot_every=3)
        j1 = Journal.open(s)
        j1.snapshot({})  # compacts the meta record away: the snapshot carries the spec
        j1.close()
        j2 = Journal.reopen(s.dir)
        assert j2.spec.batch_every == 7
        assert j2.spec.snapshot_every == 3
        j2.close()

    def test_reopen_before_the_first_snapshot_reuses_the_spec(self, tmp_path):
        s = spec(tmp_path, fsync="off", batch_every=7, snapshot_every=1000)
        Journal.open(s).close()
        j2 = Journal.reopen(s.dir)
        assert j2.spec == s
        j2.close()
        j3 = Journal.reopen(s.dir)  # ... and after a reopen, from its resume record
        assert j3.spec == s
        j3.close()

    def test_stale_writer_fenced_after_reopen(self, tmp_path):
        s = spec(tmp_path)
        j1 = Journal.open(s)
        j1.append("obs", x=0)
        j2 = Journal.reopen(s.dir)  # recovery claims the journal
        with pytest.raises(StaleWriterError):
            j1.sync()
        j2.close()

    def test_stale_epoch_tail_is_discarded_on_read(self, tmp_path):
        # The fenced predecessor had buffered records the OS flushed
        # *after* the successor started writing: they land in an older
        # segment with a lower epoch and must lose.
        s = spec(tmp_path)
        j1 = Journal.open(s)
        j1.append("obs", x="old")
        j1.sync()  # durable while epoch 1 still holds the journal
        j2 = Journal.reopen(s.dir)
        j2.append("obs", x="new")
        j2.close()
        # Simulate the stale flush: epoch-1 records past the successor's.
        with open(segment_path(s.dir, 0), "a", encoding="utf-8") as fh:
            fh.write(encode_record({"seq": 5, "kind": "obs", "e": 1, "x": "stale"}))
            fh.write(encode_record({"seq": 4, "kind": "obs", "e": 1, "x": "dupe"}))
        state = read_journal(s.dir)
        xs = [r.get("x") for r in state.records]
        assert "stale" not in xs and "dupe" not in xs
        assert xs == [None, "old", None, "new"]  # None: the meta and resume records

    def test_read_missing_dir_raises(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            read_journal(str(tmp_path / "nope"))


class TestMetrics:
    def test_append_and_fsync_flow_into_the_registry(self, tmp_path):
        reg = MetricsRegistry()
        j = Journal.open(spec(tmp_path, fsync="always"), metrics=reg)
        for i in range(4):
            j.append("obs", x=i)
        j.close()
        assert reg.histogram("journal.append.latency").count == 5  # + the meta record
        assert reg.counter("journal.fsync.count").value >= 5

    def test_snapshot_bytes_observed(self, tmp_path):
        reg = MetricsRegistry()
        j = Journal.open(spec(tmp_path), metrics=reg)
        j.snapshot({"blob": "x" * 100})
        j.close()
        assert reg.histogram("journal.snapshot.bytes").count == 1
