"""The journal folds to the last barrier under every interleaving.

A state machine drives one journal directory the way a controller does —
barriers of revisioned units (a random subset moves each time),
observation appends, snapshots with and without the last barrier
embedded, a crash and ``Journal.reopen`` with the unit cache kept or
rebuilt, and a crash that tears the record being written — and after
every step reads the directory back: ``read_journal(dir).barrier_state``
must be, as canonical JSON, the last state a durable barrier handed
over.  A moved unit that a delta leaves out, or a snapshot that drops
the barrier but leaves the writer a base, folds to another state here.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.journal import Journal, JournalSpec, read_journal
from repro.journal.delta import UnitCache
from repro.journal.wal import list_segment_indices, segment_path

#: The unit paths of a controller state, one level and nested.
PATHS = (
    ("arbitration",), ("clients",), ("next_tick",), ("watchdog",),
    ("fabric", "links", "c0"), ("fabric", "links", "c1"), ("fabric", "server"),
)
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1.0]),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.sampled_from("ab"), st.integers()),
)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class JournalMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(os, "fsync", lambda fd: None)  # durability is not under test
        self.tmp = tempfile.mkdtemp(prefix="journal-machine-")
        self.dir = os.path.join(self.tmp, "journal")
        self.journal = Journal.open(JournalSpec(dir=self.dir, fsync="off"))
        self.units = UnitCache()
        self.revisions = {path: 0 for path in PATHS}
        self.values = {path: None for path in PATHS}
        self.t = 0.0
        self.handed: str | None = None  # the last barrier's state, handed over
        self.just_barriered = False  # a snapshot embeds the barrier of its tick
        self.expected: str | None = None  # what the directory must fold to
        # seq -> the fold when the durable records end at seq: a torn
        # record falls back to the entry before it.
        self.after: dict[int, str | None] = {0: None}
        self._wrote()  # the meta record

    def teardown(self) -> None:
        self.journal.close()
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.patch.undo()

    def _wrote(self, barrier: bool = False) -> None:
        self.after[self.journal.seq] = self.expected
        self.just_barriered = barrier

    # -- the controller's writes ---------------------------------------------------
    @rule(moved=st.sets(st.sampled_from(PATHS)), data=st.data())
    def barrier(self, moved, data):
        for path in sorted(moved):
            self.revisions[path] += 1
            self.values[path] = data.draw(VALUES)
        for path in PATHS:
            self.units.update(path, self.revisions[path], lambda path=path: self.values[path])
        self.t += 1.0
        self.journal.barrier(self.t, self.units)
        self.handed = self.expected = canonical(self.units.state())
        self._wrote(barrier=True)

    @rule(n=st.integers(0, 3))
    def observation(self, n):
        self.journal.append("obs", env={"seq": n})
        self._wrote()

    @precondition(lambda self: self.just_barriered)
    @rule()
    def snapshot_with_the_barrier(self):
        self.journal.snapshot({"t": self.t, "barrier": self.units.state()})
        self.expected = self.handed
        self._wrote()

    @rule()
    def snapshot_without_the_barrier(self):
        self.journal.snapshot({"t": self.t})
        self.expected = None  # compaction deleted the barrier records
        self._wrote()

    # -- crashes -----------------------------------------------------------------------
    def _reopen(self, fresh_cache: bool) -> None:
        self.journal = Journal.reopen(self.dir)
        if fresh_cache:  # a new controller builds every unit again
            self.units = UnitCache()
        self._wrote()

    @rule(fresh_cache=st.booleans())
    def crash_and_reopen(self, fresh_cache):
        self.journal.close()
        self._reopen(fresh_cache)

    @precondition(lambda self: os.path.getsize(self._segment()) > 0)
    @rule(fresh_cache=st.booleans())
    def crash_tearing_the_last_record(self, fresh_cache):
        path = self._segment()
        self.journal.close()
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.write(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        self.expected = self.after[self.journal.seq - 1]
        self._reopen(fresh_cache)

    def _segment(self) -> str:
        self.journal._writer._fh.flush()
        return segment_path(self.dir, list_segment_indices(self.dir)[-1])

    # -- the invariant -------------------------------------------------------------
    @invariant()
    def the_directory_folds_to_the_last_durable_barrier(self):
        self.journal._writer._fh.flush()
        state = read_journal(self.dir).barrier_state
        assert (None if state is None else canonical(state)) == self.expected


JournalMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, derandomize=True, deadline=None
)
TestJournalFoldsToTheLastBarrier = JournalMachine.TestCase
