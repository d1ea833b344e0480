"""End to end, every suggestion Decision emits ends in exactly one outcome.

Over a whole run, the outcomes in the run log — the Decision stage's
(its degraded-mode gate) and the Arbitration stage's; a
``waiting-unchanged`` tick answers no suggestion and is not logged — add
up to the suggestions ``DecisionStage.tick`` returned: on the Gray-Scott paper
scenario on both machines, on a fabric run that spends time in
degraded mode, and on a threaded run, whose bounded hand-off queue sheds
batches Arbitration never saw.
"""

import time

import pytest

from repro.core import (
    ActionType, DecisionStage, GroupBySpec, PolicyApplication, PolicySpec,
    SensorSpec,
)
from repro.core.actions import Reason, reason_counts
from repro.experiments.grayscott_scenario import run_gray_scott_experiment
from repro.runtime import LiveTaskSpec, ThreadedDyflow
from tests.experiments.test_fingerprint_regression import CHAOS_XML


def conserved_run(monkeypatch, **kwargs):
    """Run Gray-Scott; returns (suggestions emitted, per-reason outcome counts)."""
    emitted = [0]
    tick = DecisionStage.tick

    def counting_tick(self, now):
        out = tick(self, now)
        emitted[0] += len(out)
        return out

    monkeypatch.setattr(DecisionStage, "tick", counting_tick)
    result = run_gray_scott_experiment(**kwargs)
    return emitted[0], reason_counts(result.launcher.log)


def ended(counts):
    assert Reason.WAITING_UNCHANGED not in counts  # counted in a metric, never logged
    return sum(counts.values())


@pytest.mark.parametrize("machine", ["summit", "deepthought2"])
def test_the_paper_scenario_accounts_for_every_suggestion(monkeypatch, machine):
    emitted, counts = conserved_run(monkeypatch, machine=machine, seed=1)
    assert emitted and counts.get(Reason.GRANTED)
    assert ended(counts) == emitted


def test_a_degraded_fabric_run_accounts_for_every_suggestion(monkeypatch):
    emitted, counts = conserved_run(monkeypatch, seed=3, xml_extra=CHAOS_XML)
    assert counts.get(Reason.GATED_DEGRADED)
    assert ended(counts) == emitted


def test_a_threaded_run_accounts_for_every_suggestion(monkeypatch):
    emitted = []
    tick = DecisionStage.tick

    def counting_tick(self, now):
        out = tick(self, now)
        emitted.extend(out)
        return out

    monkeypatch.setattr(DecisionStage, "tick", counting_tick)
    runner = ThreadedDyflow(
        "LIVE", [LiveTaskSpec("T", lambda s, w: time.sleep(0.02), total_steps=30)],
        poll_interval=0.02, warmup=0.1, settle=0.1, max_workers_total=3, queue_capacity=1,
    )
    runner.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
    runner.monitor_task("T", "PACE")
    runner.add_policy(PolicySpec("INC", "PACE", "GT", 0.0, ActionType.ADDCPU, frequency=0.0))
    runner.apply_policy(PolicyApplication("INC", "LIVE", ("T",), assess_task="T"))
    runner.start()
    try:
        assert runner.wait_until_done(timeout=30.0)
        # Once every step is ingested nothing more is suggested; wait for
        # the queue to drain and the count to hold still.
        deadline, last = time.monotonic() + 10.0, None
        while (len(runner._queue) or last != len(emitted)) and time.monotonic() < deadline:
            last = len(emitted)
            time.sleep(0.2)
    finally:
        runner.stop()
    assert len(runner._queue) == 0
    counts = reason_counts(runner.launcher.log)
    assert counts.get(Reason.GRANTED) == 2  # 1 -> 2 -> 3 workers, the node's cores
    assert counts.get(Reason.DISCARDED_GROWTH)
    assert emitted and ended(counts) == len(emitted)
