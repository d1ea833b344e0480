"""Crash-everywhere sweep over tick barriers (first slice: ``gs_full_stack``).

The benchmark's every-layer-on workload — chaos fabric with a 600–630 s
partition, WAL, telemetry, observability — is crashed at a barrier,
resumed from the journal, and must end with the uncrashed run's
fingerprint.  One run takes many crashes (each resume is one trial of
the sweep, and any wrong restore shows in the final fingerprint), so
tier-1 affords a seeded sample of two dozen barriers and the slow test
every barrier of a 300-tick window.  With delta barriers a crash point
decides what the resume folds: nothing (snapshot-aligned tick: the
snapshot's embedded barrier alone), one delta on that base (the tick
after), a chain of deltas, or a one-long chain right after a resume.
"""

import os
import random

import pytest

from repro.experiments import run_gray_scott_experiment
from repro.journal import Journal, JournalSpec, scenario_fingerprint
from repro.observability import AnomalySpec, ObservabilitySpec, SloSpec
from repro.telemetry import TelemetrySpec

# The spec of perfbench/workloads.py::GsFullStack (seed 1, summit).
CHAOS_XML = """
  <resilience>
    <network latency="0.2" jitter="0.1" drop-prob="0.10" dup-prob="0.05"
             reorder-prob="0.05" ack-timeout="2.0" max-retransmits="5"
             ingress-capacity="64" drain-per-tick="32"
             stale-after="60.0" degrade-after="3" recover-after="3">
      <partition start="600.0" duration="30.0"/>
    </network>
  </resilience>"""
SLOS = (SloSpec(metric="plan.response", stat="p95", op="LT", threshold=60.0),)
ANOMALIES = (AnomalySpec(metric="stage.monitor.latency", stat="p95", window=20, z=4.0),)
LAST_TICK = 1900


def run(journal_dir, crash_times=()):
    return run_gray_scott_experiment(
        "summit", seed=1, telemetry=TelemetrySpec(),
        observability=ObservabilitySpec(eval_every=5.0, slos=SLOS, anomalies=ANOMALIES),
        journal=JournalSpec(dir=str(journal_dir), fsync="off"),
        crash_times=crash_times, xml_extra=CHAOS_XML, preflight="strict",
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Fingerprint of the uncrashed run (which journals too, as in the benchmark)."""
    return scenario_fingerprint(run(tmp_path_factory.mktemp("reference") / "wal"))


@pytest.fixture(autouse=True)
def no_disk_sync(monkeypatch):
    monkeypatch.setattr(os, "fsync", lambda fd: None)


def crash_at_each(ticks, tmp_path, reference) -> list[float]:
    """Crash at every tick in *ticks* within one run; returns where it died."""
    result = run(tmp_path / "wal", crash_times=tuple(float(t) for t in ticks))
    assert scenario_fingerprint(result) == reference
    return result.meta["crashes"]


FORCED = [
    362, 363,  # a snapshot-aligned tick, then the tick right after its snapshot
    612, 613,  # inside the partition; the second dies one tick after a resume
]
SAMPLED = sorted(random.Random(17).sample(range(1, LAST_TICK), 20))


@pytest.mark.parametrize(
    "ticks", [SAMPLED[i::4] for i in range(4)], ids=lambda g: "-".join(map(str, g))
)
def test_crash_at_sampled_barriers_resumes_to_the_reference(ticks, tmp_path, reference):
    died = crash_at_each(ticks, tmp_path, reference)
    # A plan in flight defers a crash to the next free barrier, never drops it.
    assert len(died) == len(ticks) and all(d >= t for d, t in zip(died, ticks))


def test_crash_at_the_layout_cases_resumes_to_the_reference(tmp_path, reference, monkeypatch):
    # A snapshot follows every 20th barrier that moved the controller, so
    # which ticks are snapshot-aligned is read off the run, not computed.
    snapshots, snapshot = [], Journal.snapshot

    def recorded(journal, state):
        snapshots.append(state["t"])
        return snapshot(journal, state)

    monkeypatch.setattr(Journal, "snapshot", recorded)
    died = crash_at_each(FORCED, tmp_path, reference)
    assert died == [float(t) for t in FORCED]  # none deferred
    assert died[0] in snapshots and died[1] not in snapshots
    assert 600.0 <= died[2] <= 630.0 and died[3] == died[2] + 1


@pytest.mark.slow
@pytest.mark.parametrize("offset", range(6))
def test_crash_at_every_barrier_of_a_window(offset, tmp_path, reference):
    """Ticks 540..839 — across the partition and six snapshots — every sixth
    per run, so the six runs together crash at each barrier once."""
    ticks = list(range(540 + offset, 840, 6))
    died = crash_at_each(ticks, tmp_path, reference)
    assert len(died) == len(ticks)
