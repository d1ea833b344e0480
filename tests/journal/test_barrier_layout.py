"""The WAL's barrier layout is a format: pinned, not derived.

``DyflowOrchestrator`` builds a barrier's ``state`` from its component
table, and ``resume_from`` reads it back by the same names.  A journal
written before a rename or a dropped key could not be resumed, so the
keys — as the bytes on disk carry them — are pinned here to literals
captured on the tree before the table existed: once for a plain
Gray-Scott run (every optional subsystem off, so its key is present and
``null``) and once with every subsystem on.  Deliberate changes since:
the ``profiler`` key left with the in-core profiler; only the first
barrier of a writer epoch carries the state in full (the rest are deltas
against it); and the run's histories left the barrier for the run log on
the launcher, which outlives the controller — ``decision_outcomes`` (the
Decision gate's per-reason counts, briefly a key of its own), the
Arbitration unit's ``outcome_counts``, the health unit's ``alerts`` and
the chaos unit's ``history``.  A journal from before these changes —
every barrier full, ``profiler`` present, the retired history keys
carried — must keep resuming (last test).
"""

import glob
import json
import os

import pytest

from repro.cluster import BatchScheduler, summit
from repro.experiments import run_gray_scott_experiment
from repro.experiments.grayscott_scenario import GrayScottConfig, build_workflow, gray_scott_xml
from repro.journal import Journal, JournalSpec, read_journal, scenario_fingerprint
from repro.observability import ObservabilitySpec
from repro.sim import RngRegistry, SimEngine
from repro.telemetry import TelemetrySpec
from repro.wms import Savanna
from repro.xmlspec import configure_orchestrator, parse_dyflow_xml

STATE_KEYS = [
    "arbitration", "chaos", "clients", "fabric", "health",
    "inflight", "next_tick", "watchdog",
]
OPTIONAL = ["chaos", "fabric", "health", "watchdog"]
FABRIC_KEYS = ["degraded", "links", "server"]

EVERY_SUBSYSTEM = """
  <resilience>
    <retry max-retries="8" backoff-base="1.0" jitter="0.25"/>
    <watchdog heartbeat-timeout="200.0" poll="5.0"/>
    <faults task-crash-mtbf="400.0" msg-drop-prob="0.02"/>
    <network latency="0.2" jitter="0.1" drop-prob="0.10" dup-prob="0.05"
             ack-timeout="2.0" max-retransmits="5" ingress-capacity="64"
             drain-per-tick="32" stale-after="20.0"/>
  </resilience>"""


def first_barrier_state(journal_dir: str, everything: bool) -> list[tuple[str, object]]:
    """Run Gray-Scott for 20 simulated seconds; the first barrier's state
    as (key, value) pairs in the order the WAL line holds them."""
    config = GrayScottConfig.summit()
    num_nodes = max(config.gs_procs // config.gs_procs_per_node, 10)
    engine = SimEngine()
    job = BatchScheduler(engine, summit(num_nodes)).submit(num_nodes, walltime_limit=10_000.0)
    engine.run(until=0)
    launcher = Savanna(engine, build_workflow(config), job.allocation, rng=RngRegistry(3))
    xml = gray_scott_xml("summit")
    layers = {}
    if everything:
        xml = xml.replace("</dyflow>", EVERY_SUBSYSTEM + "\n</dyflow>")
        layers = {"telemetry": TelemetrySpec(), "observability": ObservabilitySpec()}
    # No snapshot in these 21 ticks: compaction would delete the segment
    # holding the epoch's first — the only full — barrier record.
    orch = configure_orchestrator(
        launcher, parse_dyflow_xml(xml),
        journal=JournalSpec(dir=journal_dir, fsync="off", snapshot_every=1000), **layers,
    )
    orch.start()
    launcher.launch_workflow()
    engine.run(until=20.0)
    orch.stop()
    for segment in sorted(glob.glob(os.path.join(journal_dir, "wal-*.jsonl"))):
        with open(segment, encoding="utf-8") as fh:
            for line in fh:
                if '"kind":"barrier"' in line:
                    record = json.loads(line[line.index("{"):], object_pairs_hook=list)
                    return dict(record)["state"]
    raise AssertionError("the run journaled no barrier")


@pytest.mark.parametrize("everything", [False, True], ids=["plain", "every-subsystem-on"])
def test_barrier_state_keys_are_pinned(tmp_path, everything):
    state = first_barrier_state(str(tmp_path / "journal"), everything)
    assert [key for key, _ in state] == STATE_KEYS
    absent = [key for key, value in state if value is None]
    assert absent == ([] if everything else OPTIONAL)
    if everything:
        assert [key for key, _ in dict(state)["fabric"]] == FABRIC_KEYS


def test_a_journal_of_full_state_barriers_resumes(tmp_path, monkeypatch):
    """The layout before delta barriers: every barrier record carries the
    whole state (``"profiler": null`` included, from the days the table
    had that row, and the outcome counts the run log now holds) and the
    snapshot embeds the same.  A full record simply restarts the fold, and
    the retired keys are ignored, so such journals stay resumable."""

    def barrier_like_the_old_writer(self, t, units):
        state = units.state()
        arbitration = {**state["arbitration"], "outcome_counts": {"granted": 1}}
        state = {
            **state, "arbitration": arbitration, "decision_outcomes": {"gated-degraded": 1},
            "profiler": None,
        }
        return self.append("barrier", t=t, state=state)

    monkeypatch.setattr(Journal, "barrier", barrier_like_the_old_writer)
    spec = JournalSpec(dir=str(tmp_path / "journal"), fsync="off")
    ref = run_gray_scott_experiment(crash_times=(300.0,), ignore_crash_requests=True)
    res = run_gray_scott_experiment(journal=spec, crash_times=(300.0,))
    assert res.meta["crashes"] == [300.0]
    barriers = [r for r in read_journal(spec.dir).records if r["kind"] == "barrier"]
    assert barriers and all(b["state"]["profiler"] is None for b in barriers)
    assert all("decision_outcomes" in b["state"] for b in barriers)
    assert scenario_fingerprint(res) == scenario_fingerprint(ref)
