"""Delta barriers: the WAL folds to the state the controller handed over.

Only the first barrier of a writer epoch carries the controller state in
full; every other one carries what changed since the barrier before it —
the orchestrator's revisioned units that moved, each written whole — and
``read_journal`` folds the chain.  The oracle here is the state the
driver handed to ``Journal.barrier`` at each tick (its unit cache, as a
whole state): folding the WAL up to that tick must give the same
*canonical JSON text* — text, not ``==``, so ``1`` against ``1.0`` and a
base aliased to live state both show.  And the handed-over state must
itself be the controller's: at every tick it is compared with one built
from scratch into an empty cache, so a unit handed over from the barrier
cache after a change that bumped no revision shows, and so does a moved
unit the delta left out.
"""

import json
import os
import shutil
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.experiments import run_gray_scott_experiment
from repro.journal import Journal, JournalSpec, read_journal, scenario_fingerprint
from repro.journal import journal as journal_module
from repro.journal.delta import UnitCache, apply_delta, state_delta
from repro.journal.wal import encode_record, list_segment_indices, segment_path
from repro.observability import ObservabilitySpec
from repro.runtime import sim_driver, threaded
from repro.telemetry import TelemetrySpec

from tests.journal.test_barrier_layout import EVERY_SUBSYSTEM
from tests.journal.test_threaded_checkpoint import make_runner

CRASH_TIMES = (300.0, 707.0)  # right after a snapshot of the default cadence; mid-segment
CHECK_UNTIL = {1: 400, 5: 800}  # snapshot_every -> first tick time not read back


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Recording:
    """One every-subsystem-on Gray-Scott run with two crash/resumes, the
    WAL checked against the handed-over state at every tick."""

    def __init__(self, journal_dir: str, snapshot_every: int, check_until: float) -> None:
        self.dir = journal_dir
        self.handed: dict[float, str] = {}  # barrier time -> canonical state
        self.records: list[tuple[int, str, int]] = []  # (epoch, "state"|"delta", bytes)
        self.checked = {"barrier": 0, "snapshot": 0}
        self.fresh: str | None = None  # the state this tick, built uncached
        self.fresh_checked = 0
        barrier, snapshot, append = Journal.barrier, Journal.snapshot, Journal.append
        barrier_units = sim_driver.DyflowOrchestrator._barrier_units
        recording = self

        def fresh_barrier_units(orch, units):
            recording.fresh = canonical(barrier_units(orch, UnitCache()).state())
            return barrier_units(orch, units)

        def fold_equals_handed(journal, t, after):
            if t >= check_until:
                return
            journal._writer._fh.flush()
            folded = read_journal(journal.spec.dir).barrier_state
            assert canonical(folded) == recording.handed[t], f"fold differs at t={t}"
            recording.checked[after] += 1

        def checked_barrier(journal, t, units):
            assert isinstance(units, UnitCache), "the orchestrator hands over its units"
            recording.handed[t] = canonical(units.state())
            assert recording.handed[t] == recording.fresh, f"a stale unit at t={t}"
            recording.fresh_checked += 1
            seq = barrier(journal, t, units)
            fold_equals_handed(journal, t, "barrier")
            return seq

        def checked_snapshot(journal, state):
            index = snapshot(journal, state)
            fold_equals_handed(journal, state["t"], "snapshot")  # base: the embedded barrier
            return index

        def sized_append(journal, kind, **payload):
            if kind == "barrier":
                layout = "state" if "state" in payload else "delta"
                size = len(encode_record({**payload, "seq": 0, "kind": kind, "e": 0}))
                recording.records.append((journal.epoch, layout, size))
            return append(journal, kind, **payload)

        patch = pytest.MonkeyPatch()
        patch.setattr(Journal, "barrier", checked_barrier)
        patch.setattr(sim_driver.DyflowOrchestrator, "_barrier_units", fresh_barrier_units)
        patch.setattr(Journal, "snapshot", checked_snapshot)
        patch.setattr(Journal, "append", sized_append)
        patch.setattr(os, "fsync", lambda fd: None)  # snapshots sync whatever the spec says
        try:
            self.result = run_gray_scott_experiment(
                seed=3,
                telemetry=TelemetrySpec(),
                observability=ObservabilitySpec(),
                journal=JournalSpec(dir=journal_dir, fsync="off", snapshot_every=snapshot_every),
                crash_times=CRASH_TIMES,
                xml_extra=EVERY_SUBSYSTEM,
            )
        finally:
            patch.undo()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``recorded(snapshot_every)`` -> the Recording, one run per cadence.

    Reading the WAL back costs a snapshot parse, and the snapshot grows
    with the run: the default cadence is checked at all ~1900 ticks, a
    snapshot every 5 ticks until past both crash/resumes (t < 800), one
    at *every* tick until past the first (t < 400).
    """
    runs: dict[int, Recording] = {}

    def get(snapshot_every: int) -> Recording:
        if snapshot_every not in runs:
            journal_dir = str(tmp_path_factory.mktemp(f"every{snapshot_every}") / "journal")
            until = CHECK_UNTIL.get(snapshot_every, float("inf"))
            runs[snapshot_every] = Recording(journal_dir, snapshot_every, until)
        return runs[snapshot_every]

    return get


@pytest.fixture(scope="module")
def reference_fingerprint():
    return scenario_fingerprint(run_gray_scott_experiment(
        seed=3, telemetry=TelemetrySpec(),
        observability=ObservabilitySpec(), xml_extra=EVERY_SUBSYSTEM,
    ))


# --------------------------------------------------------------------------- #
# oracle: fold == full, at every tick
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("snapshot_every", [1, 5, 20])
def test_the_wal_folds_to_the_handed_over_state_at_every_tick(
    recorded, reference_fingerprint, snapshot_every
):
    rec = recorded(snapshot_every)
    assert rec.result.meta["crashes"] == list(CRASH_TIMES)
    barriers = len(rec.records)
    assert barriers > 1500 and rec.fresh_checked == barriers
    checked = CHECK_UNTIL.get(snapshot_every, barriers)  # one tick a second from t=0
    assert rec.checked == {"barrier": checked, "snapshot": checked // snapshot_every}
    # The first barrier of each of the three writer epochs is full, no other.
    assert [e for e, layout, _ in rec.records if layout == "state"] == [1, 2, 3]
    for epoch in (1, 2, 3):
        assert next(layout for e, layout, _ in rec.records if e == epoch) == "state"
    # A steady-state delta is a small fraction of a steady-state full record
    # (the two written on resume; epoch 1's is the empty controller at t=0).
    full = min(size for e, layout, size in rec.records if layout == "state" and e > 1)
    deltas = sorted(size for _, layout, size in rec.records if layout == "delta")
    assert deltas[len(deltas) // 2] < 0.10 * full
    # And the crashed run is the uncrashed run.
    assert scenario_fingerprint(rec.result) == reference_fingerprint


def test_a_resumed_controller_instruments_each_channel_once(recorded):
    """Each resume attaches the surviving tracer again: every channel must
    keep one step observer and be counted once, as in an uncrashed run."""
    rec = recorded(20)
    assert rec.result.meta["crashes"] == list(CRASH_TIMES)
    channels = list(rec.result.launcher.hub._channels.values())
    assert channels
    for channel in channels:
        assert [f.__name__ for f in channel.observers].count("_on_put") == 1, channel.name
    counter = rec.result.tracer.metrics.counter("staging.channels")
    assert counter.value == len(channels)


# --------------------------------------------------------------------------- #
# read-layer fault injection on the recorded WAL
# --------------------------------------------------------------------------- #
def expected_after(journal_dir: str, handed: dict[float, str]) -> str:
    """Canonical state of the last barrier *journal_dir* still holds."""
    state = read_journal(journal_dir)
    times = [r["t"] for r in state.records if r["kind"] == "barrier"]
    return handed[times[-1] if times else state.snapshot_state["t"]]


def test_a_truncated_or_corrupted_wal_folds_right_or_raises(recorded, tmp_path):
    rec = recorded(20)
    last = segment_path(rec.dir, list_segment_indices(rec.dir)[-1])
    with open(last, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    kinds = [json.loads(line[9:])["kind"] for line in lines]
    assert kinds.count("barrier") >= 3 and b'"delta"' in lines[kinds.index("barrier")]

    def copy_with(tail: bytes) -> str:
        target = str(tmp_path / "copy")
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(rec.dir, target)
        with open(os.path.join(target, os.path.basename(last)), "wb") as fh:
            fh.write(tail)
        return target

    folds = 0
    for keep in range(len(lines) + 1):
        cuts = [b"".join(lines[:keep])]
        if keep < len(lines):
            cuts.append(cuts[0] + lines[keep][: len(lines[keep]) // 2])  # torn mid-line
        for tail in cuts:
            target = copy_with(tail)
            state = read_journal(target)  # a torn tail is dropped, never an error
            assert canonical(state.barrier_state) == expected_after(target, rec.handed)
            folds += 1
    assert folds == 2 * len(lines) + 1

    # One flipped byte inside a delta record that is not the tail: typed refusal.
    victim = kinds.index("barrier")
    assert victim < len(lines) - 1
    flipped = bytearray(lines[victim])
    flipped[len(flipped) // 2] ^= 0x01
    target = copy_with(b"".join(lines[:victim] + [bytes(flipped)] + lines[victim + 1:]))
    with pytest.raises(JournalError, match="corrupt WAL record mid-segment"):
        read_journal(target)


def test_a_delta_without_a_base_is_refused(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    with closing(Journal.open(spec)) as j:
        j.append("barrier", t=0.0, delta=[[["next_tick", "at"], 1.0]])
    with pytest.raises(JournalError, match="has no barrier before it"):
        read_journal(spec.dir)


def test_a_delta_that_meets_the_wrong_base_is_refused(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    with closing(Journal.open(spec)) as j:
        j.append("barrier", t=0.0, state={"next_tick": {"at": 0.0}})
        j.append("barrier", t=1.0, delta=[[["fabric", "degraded"], True]])
    with pytest.raises(JournalError, match="absent from its base"):
        read_journal(spec.dir)


# --------------------------------------------------------------------------- #
# the writer: epochs, snapshots, aliasing, types
# --------------------------------------------------------------------------- #
def barrier_records(journal_dir: str) -> list[dict]:
    return [r for r in read_journal(journal_dir).records if r["kind"] == "barrier"]


def test_first_barrier_is_full_then_deltas_and_reopen_starts_over(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    with closing(Journal.open(spec)) as j:
        j.barrier(0.0, {"a": {"x": 1, "y": [1, 2]}, "b": None})
        j.barrier(1.0, {"a": {"x": 2, "y": [1, 2]}, "b": None})
        j.barrier(2.0, {"a": {"x": 2, "y": [1, 2]}, "b": None})
    first, second, third = barrier_records(spec.dir)
    assert first["state"] == {"a": {"x": 1, "y": [1, 2]}, "b": None} and "delta" not in first
    assert second["delta"] == [[["a", "x"], 2]] and "state" not in second
    assert third["delta"] == []
    with closing(Journal.reopen(spec.dir)) as j:
        j.barrier(3.0, {"a": {"x": 2, "y": [1, 2]}, "b": None})
    assert "state" in barrier_records(spec.dir)[-1]
    assert read_journal(spec.dir).barrier_state == {"a": {"x": 2, "y": [1, 2]}, "b": None}


def test_the_base_does_not_alias_the_state_it_was_handed(tmp_path):
    """A component that returns its live list from ``state_dict`` and later
    mutates it in place must still see the mutation journaled."""
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    alerts = [{"t": 1.0}]
    with closing(Journal.open(spec)) as j:
        j.barrier(0.0, {"health": {"alerts": alerts}})
        alerts.append({"t": 2.0})
        alerts[0]["t"] = 1.5
        j.barrier(1.0, {"health": {"alerts": alerts}})
    assert barrier_records(spec.dir)[-1]["delta"] == [
        [["health", "alerts"], [{"t": 1.5}, {"t": 2.0}]]
    ]


def test_a_type_only_change_is_journaled(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    states = [
        {"n": 1, "z": 0.0, "deep": {"flags": [0, 1]}},
        {"n": 1.0, "z": -0.0, "deep": {"flags": [False, 1]}},
        {"n": True, "z": 0, "deep": {"flags": [False, 1.0]}},
    ]
    with closing(Journal.open(spec)) as j:
        for t, state in enumerate(states):
            j.barrier(float(t), state)
            j.sync()
            assert canonical(read_journal(spec.dir).barrier_state) == canonical(state)
    assert [len(r.get("delta", [])) for r in barrier_records(spec.dir)] == [0, 3, 3]


def test_a_barrier_that_failed_to_append_is_not_a_base(tmp_path, monkeypatch):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    with closing(Journal.open(spec)) as j:
        j.barrier(0.0, {"a": 1})
        with monkeypatch.context() as patch:
            patch.setattr(j._writer, "append", lambda record: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                j.barrier(1.0, {"a": 2})
        j.barrier(2.0, {"a": 2})  # no delta against the unwritten {"a": 2}
    assert [r.get("state") for r in barrier_records(spec.dir)] == [{"a": 1}, {"a": 2}]


def test_a_snapshot_without_the_barrier_makes_the_next_barrier_full(tmp_path):
    """Compaction deletes the record a delta would fold onto; only a
    snapshot that embeds the barrier may be followed by a delta."""
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    state = {"a": 1}
    with closing(Journal.open(spec)) as j:
        j.barrier(0.0, state)
        j.snapshot({"t": 0.0, "barrier": state})
        j.barrier(1.0, {"a": 2})
        j.sync()
        assert "delta" in barrier_records(spec.dir)[-1]
        assert read_journal(spec.dir).barrier_state == {"a": 2}
        j.snapshot({"t": 1.0})
        assert read_journal(spec.dir).barrier_state is None
        j.barrier(2.0, {"a": 3})
    (only,) = barrier_records(spec.dir)
    assert (only["t"], only["state"]) == (2.0, {"a": 3})


# --------------------------------------------------------------------------- #
# read-once resume
# --------------------------------------------------------------------------- #
def test_reopen_leaves_the_state_it_was_given_unchanged(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off", snapshot_every=7)
    with closing(Journal.open(spec)) as j:
        j.snapshot({})  # persists the spec, "dir" included
    state = read_journal(spec.dir)
    before = dict(state.journal_spec)
    with closing(Journal.reopen(spec.dir, state=state)) as j:
        assert j.spec == spec
    assert state.journal_spec == before and before["dir"] == spec.dir


def test_a_resume_reads_the_journal_once(tmp_path, monkeypatch):
    reads = []

    def counting(directory):
        reads.append(directory)
        return read_journal(directory)

    monkeypatch.setattr(sim_driver, "read_journal", counting)
    monkeypatch.setattr(journal_module, "read_journal", counting)
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    result = run_gray_scott_experiment(journal=spec, crash_times=CRASH_TIMES)
    assert result.meta["crashes"] == list(CRASH_TIMES)
    assert reads == [spec.dir, spec.dir]  # one per resume_from


def test_a_threaded_resume_reads_the_journal_once(tmp_path, monkeypatch):
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    first = make_runner([], journal=spec)
    first.start()
    assert first.wait_until_done(timeout=15.0)
    first.stop()
    reads = []

    def counting(directory):
        reads.append(directory)
        return read_journal(directory)

    monkeypatch.setattr(threaded, "read_journal", counting)
    monkeypatch.setattr(journal_module, "read_journal", counting)
    second = make_runner([], journal=None)
    second.resume_from(spec.dir)
    second.start()
    second.stop()
    assert reads == [spec.dir]


# --------------------------------------------------------------------------- #
# properties of the delta itself
# --------------------------------------------------------------------------- #
SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, ""]),
    st.integers(min_value=-(2**130), max_value=2**130),  # PCG64 state is 128 bits
    st.floats(allow_nan=False), st.text(max_size=4),
)
KEYS = st.sampled_from(["a", "b", "c", "d", "state", "inc"])
STATES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=200)
@given(STATES, STATES)
def test_applying_the_delta_gives_the_new_state(prev, cur):
    before = canonical(prev)
    delta = json.loads(json.dumps(state_delta(prev, cur)))  # as a reader meets it
    assert canonical(apply_delta(prev, delta)) == canonical(cur)
    assert canonical(prev) == before, "apply_delta mutated its input"
    assert state_delta(cur, cur) == []


@settings(max_examples=60)
@given(st.lists(STATES, min_size=2, max_size=8))
def test_a_chain_of_deltas_folds_to_the_last_state(states):
    from repro.journal.delta import SignedState

    signed, folded = SignedState(states[0]), states[0]
    for state in states[1:]:
        folded = apply_delta(folded, json.loads(json.dumps(signed.delta(state))))
        assert canonical(folded) == canonical(state)


def test_a_unit_barrier_writes_the_moved_units_whole(tmp_path, monkeypatch):
    """A delta of revisioned units is each unit whose revision moved,
    written whole at its path; nothing is signed to find them."""
    from repro.journal import delta

    monkeypatch.setattr(delta, "_signature", lambda value: 1 / 0)
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    units, alerts = UnitCache(), [{"t": float(i)} for i in range(1000)]

    def refresh(revisions: dict) -> UnitCache:
        units.update(("health",), revisions["health"], lambda: {"alerts": list(alerts)})
        for lid in ("c0", "c1"):
            units.update(("fabric", "links", lid), revisions[lid], lambda: {"id": lid, **revisions})
        return units

    with closing(Journal.open(spec)) as j:
        j.barrier(0.0, refresh({"health": 0, "c0": 0, "c1": 0}))
        j.barrier(1.0, refresh({"health": 0, "c0": 1, "c1": 0}))
        alerts.append({"t": 1000.0})
        j.barrier(2.0, refresh({"health": 1, "c0": 1, "c1": 0}))
        j.barrier(3.0, refresh({"health": 1, "c0": 1, "c1": 0}))
    first, *deltas = barrier_records(spec.dir)
    assert sorted(first["state"]) == ["fabric", "health"] and "delta" not in first
    assert [r["delta"] for r in deltas] == [
        [[["fabric", "links", "c0"], {"id": "c0", "health": 0, "c0": 1, "c1": 0}]],
        [[["health"], {"alerts": alerts}]],
        [],
    ]
    assert read_journal(spec.dir).barrier_state == units.state()


def test_a_dict_whose_keys_came_or_went_is_replaced_whole():
    prev = {"a": {"x": 1, "y": 2}, "b": {"k": None}}
    assert state_delta(prev, {"a": {"x": 1}, "b": {"k": None}}) == [[["a"], {"x": 1}]]
    assert state_delta(prev, {"a": {"x": 1, "y": 2}, "b": {}}) == [[["b"], {}]]
    assert state_delta(prev, {"a": {"x": 1, "y": 2}}) == [[[], {"a": {"x": 1, "y": 2}}]]
    assert state_delta({"a": [1, {"x": 1}]}, {"a": [1, {"x": 2}]}) == [[["a"], [1, {"x": 2}]]]
    assert state_delta({"a": None}, {"a": {}}) == [[["a"], {}]]
