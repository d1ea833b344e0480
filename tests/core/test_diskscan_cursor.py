"""The DISKSCAN creation cursor against the full rescan it replaced.

``DiskScanSource.poll`` reads the paths logged behind its position in
``SimFilesystem``'s creation log.  The reference below is the poll it
replaced — glob the whole disk, sort, drop what a ``_seen`` set already
holds.  Over every sequence of creates, replaces and appends both must
return the same samples in the same order at every poll.  Where files
are removed or a poll raises, the two differ on purpose; those cases are
spelled out at the end.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sensors import DiskScanSource
from repro.errors import SensorError
from repro.staging import Sample, SimFilesystem


def steps_or_records(entry) -> float:
    """Steps completed, or for an appendable file how many records it holds."""
    if isinstance(entry.data, list):
        return float(len(entry.data))
    step = entry.meta["step"] if entry.meta else entry.data["step"]
    return float(step) + 1.0


class RescanReference:
    """The deleted poll: rescan everything, report what was never seen."""

    def __init__(self, fs: SimFilesystem, pattern: str, task: str) -> None:
        self.fs, self.pattern, self.task = fs, pattern, task
        self._seen: set[str] = set()

    def poll(self, now: float) -> list[Sample]:
        out = []
        for entry in self.fs.scan(self.pattern):
            if entry.path in self._seen:
                continue
            self._seen.add(entry.path)
            out.append(Sample(time=entry.mtime, workflow_id="W", task=self.task, rank=-1,
                              node_id="", var="nsteps", value=steps_or_records(entry),
                              step=int(entry.meta.get("step", -1)) if entry.meta else -1))
        return out


def cursor_source(fs: SimFilesystem, pattern: str, task: str) -> DiskScanSource:
    return DiskScanSource(fs, pattern, "W", task, value_fn=steps_or_records)


# Three families of step files and two appendable logs; each glob matches
# two of the families and one of the logs.
PATHS = [f"out/{family}.out.{i}" for family in ("A", "B", "AB") for i in range(4)]
GLOBS = ("out/A*.out.*", "out/*B.out.?")
MTIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 5.0, 0.5])  # ties, and not monotone

ops = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(PATHS), MTIMES, st.integers(0, 9),
              st.booleans()),
    st.tuples(st.just("append"), st.sampled_from(["out/A.out.log", "out/B.out.l"]), MTIMES),
    st.tuples(st.just("other"), st.sampled_from(["ckpt/A.0", "out/C.out.1"]), MTIMES),
    st.tuples(st.just("poll"), st.integers(0, 1)),
)


@settings(max_examples=300)
@given(st.lists(ops, max_size=40))
def test_cursor_poll_equals_full_rescan(script):
    fs = SimFilesystem()
    cursors = [cursor_source(fs, g, f"T{i}") for i, g in enumerate(GLOBS)]
    rescans = [RescanReference(fs, g, f"T{i}") for i, g in enumerate(GLOBS)]
    polls = 0
    for op in script + [("poll", 0), ("poll", 1)]:
        if op[0] == "write":
            _, path, mtime, step, in_meta = op
            if in_meta:
                fs.write(path, "blob", mtime, step=step)
            else:
                fs.write(path, {"step": step}, mtime)
        elif op[0] == "append":
            fs.append_record(op[1], {"code": 0}, op[2])
        elif op[0] == "other":
            fs.write(op[1], {"step": 0}, op[2])
        else:
            polls += 1
            assert cursors[op[1]].poll(float(polls)) == rescans[op[1]].poll(float(polls))
    # Both globs ended on a poll: everything on disk was reported once.
    for cursor, rescan in zip(cursors, rescans):
        assert cursor.poll(99.0) == rescan.poll(99.0) == []


def test_the_reference_and_the_cursor_see_something():
    """Non-vacuity: the scripts above do report files, in (mtime, path) order."""
    fs = SimFilesystem()
    src = cursor_source(fs, GLOBS[0], "T")
    ref = RescanReference(fs, GLOBS[0], "T")
    fs.append_record("out/A.out.log", {"code": 0}, 9.0)
    fs.write("out/AB.out.1", "x", 2.0, step=1)
    fs.write("out/A.out.3", "x", 1.0, step=3)
    fs.write("out/A.out.0", "x", 1.0, step=0)
    fs.write("out/B.out.0", "x", 0.0, step=0)
    fs.append_record("out/A.out.log", {"code": 1}, 0.5)  # the log's mtime moves back
    got = src.poll(2.0)
    assert got == ref.poll(2.0)
    assert [(s.time, s.value) for s in got] == [(0.5, 2.0), (1.0, 1.0), (1.0, 4.0), (2.0, 2.0)]
    fs.append_record("out/A.out.log", {"code": 2}, 3.0)  # a reported file: nothing new
    assert src.poll(3.0) == ref.poll(3.0) == []


def values(samples: list[Sample]) -> list[float]:
    return [s.value for s in samples]


class TestWhereTheCursorDiffersOnPurpose:
    def test_a_removed_then_recreated_path_is_a_new_file(self):
        fs = SimFilesystem()
        src = DiskScanSource(fs, "f.*", "W", "T")
        ref = RescanReference(fs, "f.*", "T")
        fs.write("f.0", "x", 1.0, step=0)
        assert values(src.poll(1.0)) == values(ref.poll(1.0)) == [1.0]
        fs.remove("f.0")
        fs.write("f.0", "x", 2.0, step=7)
        assert values(src.poll(2.0)) == [8.0]
        assert ref.poll(2.0) == []  # the rescan suppressed it for ever
        assert src.poll(3.0) == []

    def test_removed_and_recreated_between_two_polls_is_reported_once(self):
        fs = SimFilesystem()
        src = DiskScanSource(fs, "f.*", "W", "T")
        fs.write("f.0", "x", 1.0, step=0)
        fs.remove("f.0")
        fs.write("f.0", "x", 2.0, step=1)
        assert values(src.poll(2.0)) == [2.0]

    def test_created_and_removed_before_a_poll_is_never_reported(self):
        fs = SimFilesystem()
        src = DiskScanSource(fs, "f.*", "W", "T")
        ref = RescanReference(fs, "f.*", "T")
        fs.write("f.0", "x", 1.0, step=0)
        fs.write("f.1", "x", 1.0, step=1)
        fs.remove("f.0")
        assert values(src.poll(1.0)) == values(ref.poll(1.0)) == [2.0]
        assert src.poll(2.0) == ref.poll(2.0) == []

    def test_a_poll_that_raises_does_not_move_the_cursor(self):
        fs = SimFilesystem()
        src = DiskScanSource(fs, "f.*", "W", "T")
        fs.write("f.0", "x", 1.0, step=0)
        fs.write("f.1", "no step anywhere", 2.0)
        fs.write("f.2", "x", 3.0, step=2)
        before = src.cursor_state()
        with pytest.raises(SensorError, match="f.1"):
            src.poll(3.0)
        assert src.cursor_state() == before
        fs.write("f.1", "x", 2.0, step=1)  # the writer repairs the file
        assert values(src.poll(4.0)) == [1.0, 2.0, 3.0]  # f.0 was not lost
        assert src.poll(5.0) == []


def test_scan_and_poll_while_other_threads_create_files():
    """Every path exactly once, none lost, no 'dictionary changed size'.

    Holds the publish order of ``SimFilesystem.write`` (file, then log
    line): a poll that saw the line first would step over the file.
    """
    fs = SimFilesystem()
    src = DiskScanSource(fs, "out/T*.out.*", "W", "T")
    writers, per_writer = 3, 3000  # more threads than the CI runner has cores
    failures: list[BaseException] = []

    def writer(w: int) -> None:
        try:
            for i in range(per_writer):
                step = w * per_writer + i
                fs.write(f"out/T{w}.out.{i}", None, float(i), step=step)
                fs.write(f"ckpt/T{w}.{i}", None, float(i))
        except BaseException as exc:
            failures.append(exc)
            raise

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(writers)]
    reported: list[float] = []
    rounds = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60.0
        while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
            for _ in range(20):
                new = values(src.poll(0.0))
                reported += new
                rounds += bool(new)
            fs.scan("out/T*.out.*")
            fs.listdir("ckpt")
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    reported += values(src.poll(0.0))

    assert not failures
    assert rounds > 1  # files arrived over several polls: reads overlapped writes
    assert sorted(reported) == [float(step) + 1.0 for step in range(writers * per_writer)]
    assert len(fs.scan("out/T*.out.*")) == writers * per_writer
    assert src.cursor_state() == {"pos": 2 * writers * per_writer}
