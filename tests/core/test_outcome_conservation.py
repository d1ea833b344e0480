"""End to end, every suggestion Decision emits ends in exactly one outcome.

Over a whole run, the per-reason counts of the Decision stage (its
degraded-mode gate) and of the Arbitration stage, less the
``waiting-unchanged`` ticks that answer no suggestion, add up to the
suggestions ``DecisionStage.tick`` returned: on the Gray-Scott paper
scenario on both machines, and on a fabric run that spends time in
degraded mode.
"""

import pytest

from repro.core import ArbitrationStage, DecisionStage
from repro.core.actions import Reason
from repro.experiments.grayscott_scenario import run_gray_scott_experiment
from tests.experiments.test_fingerprint_regression import CHAOS_XML


def conserved_run(monkeypatch, **kwargs):
    """Run Gray-Scott; returns (suggestions emitted, summed per-reason counts)."""
    emitted = [0]
    stages: dict[int, object] = {}
    tick, gate, arbitrate = DecisionStage.tick, DecisionStage.gate, ArbitrationStage.arbitrate

    def counting_tick(self, now):
        out = tick(self, now)
        emitted[0] += len(out)
        return out

    def seen_gate(self, suggestions):
        stages[id(self)] = self
        return gate(self, suggestions)

    def seen_arbitrate(self, suggestions, now):
        stages[id(self)] = self
        return arbitrate(self, suggestions, now)

    monkeypatch.setattr(DecisionStage, "tick", counting_tick)
    monkeypatch.setattr(DecisionStage, "gate", seen_gate)
    monkeypatch.setattr(ArbitrationStage, "arbitrate", seen_arbitrate)
    run_gray_scott_experiment(**kwargs)
    counts: dict[str, int] = {}
    for stage in stages.values():
        for reason, n in stage.outcome_counts.items():
            counts[reason] = counts.get(reason, 0) + n
    return emitted[0], counts


def ended(counts):
    return sum(n for reason, n in counts.items() if reason != Reason.WAITING_UNCHANGED)


@pytest.mark.parametrize("machine", ["summit", "deepthought2"])
def test_the_paper_scenario_accounts_for_every_suggestion(monkeypatch, machine):
    emitted, counts = conserved_run(monkeypatch, machine=machine, seed=1)
    assert emitted and counts.get(Reason.GRANTED)
    assert ended(counts) == emitted


def test_a_degraded_fabric_run_accounts_for_every_suggestion(monkeypatch):
    emitted, counts = conserved_run(monkeypatch, seed=3, xml_extra=CHAOS_XML)
    assert counts.get(Reason.GATED_DEGRADED)
    assert ended(counts) == emitted
