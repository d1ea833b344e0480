"""DegradedModeController hysteresis and DecisionStage gating."""

import os

from repro.core.actions import ActionType, Outcome, Reason, SuggestedAction, reason_counts
from repro.core.decision import DecisionStage
from repro.experiments.grayscott_scenario import run_gray_scott_experiment
from repro.fabric import DegradedModeController, NetworkSpec, PartitionWindow
from repro.fabric.spec import HEALTH_TASK
from repro.journal import JournalSpec
from tests.experiments.test_fingerprint_regression import CHAOS_XML


def controller(**kw) -> DegradedModeController:
    kw.setdefault("stale_after", 10.0)
    kw.setdefault("degrade_after", 2)
    kw.setdefault("recover_after", 2)
    return DegradedModeController(NetworkSpec(**kw))


def suggestion(action: ActionType) -> SuggestedAction:
    return SuggestedAction(policy_id="P", action=action, target="T",
                           workflow_id="W", assess_task="T")


class TestHysteresis:
    def test_enters_after_streak(self):
        c = controller()
        seen = {"T": 0.0}
        assert c.tick(11.0, seen) == []          # stale tick 1
        alerts = c.tick(12.0, seen)              # stale tick 2 -> degraded
        assert c.degraded and c.entered == 1
        assert alerts[0].source == "fabric:degraded" and alerts[0].kind == "firing"

    def test_single_stale_tick_not_enough(self):
        c = controller()
        c.tick(11.0, {"T": 0.0})
        c.tick(12.0, {"T": 11.5})                # fresh again: streak resets
        c.tick(13.0, {"T": 0.0})
        assert not c.degraded

    def test_recovers_after_fresh_streak(self):
        c = controller()
        c.tick(11.0, {"T": 0.0})
        c.tick(12.0, {"T": 0.0})
        assert c.degraded
        c.tick(13.0, {"T": 12.5})
        alerts = c.tick(14.0, {"T": 13.5})
        assert not c.degraded and c.exited == 1
        assert alerts[0].kind == "clearing"

    def test_never_reported_tasks_ignored(self):
        # Warmup: an empty last_seen map must not read as stale.
        c = controller()
        for t in (11.0, 12.0, 13.0):
            c.tick(t, {})
        assert not c.degraded

    def test_health_pseudo_task_ignored(self):
        c = controller()
        # Fresh health updates must not mask a stale real task...
        seen = {"T": 0.0, HEALTH_TASK: 11.9}
        c.tick(12.0, seen)
        c.tick(13.0, seen)
        assert c.degraded

    def test_disabled_without_stale_after(self):
        c = controller(stale_after=0.0)
        c.tick(100.0, {"T": 0.0})
        c.tick(200.0, {"T": 0.0})
        assert not c.degraded


class TestPartitionAlerts:
    def test_window_transition_alerts(self):
        c = controller(partitions=(PartitionWindow(10.0, 5.0),))
        assert c.tick(5.0, {}) == []
        firing = c.tick(11.0, {})
        assert firing[0].source == "fabric:partition" and firing[0].kind == "firing"
        assert c.tick(12.0, {}) == []            # no re-fire inside the window
        clearing = c.tick(16.0, {})
        assert clearing[0].kind == "clearing"


class TestStateDict:
    def test_round_trip(self):
        c = controller(partitions=(PartitionWindow(10.0, 5.0),))
        c.tick(11.0, {"T": 0.0})
        c.tick(12.0, {"T": 0.0})
        state = c.state_dict()
        assert "alerts" not in state
        fresh = controller(partitions=(PartitionWindow(10.0, 5.0),))
        fresh.load_state_dict({**state, "alerts": []})  # as older journals wrote it
        assert fresh.degraded and fresh.partition
        assert fresh.entered == 1
        # Streaks restored: one fresh tick is not enough to recover.
        fresh.tick(13.0, {"T": 12.5})
        assert fresh.degraded


class TestDecisionGate:
    def all_actions(self):
        return [suggestion(a) for a in
                (ActionType.ADDCPU, ActionType.STOP, ActionType.RMCPU,
                 ActionType.RESTART, ActionType.START)]

    def test_passthrough_when_healthy(self):
        d = DecisionStage()
        batch = self.all_actions()
        assert d.gate(batch, 1.0) == batch
        assert d.outcomes == [] and reason_counts(d.log) == {}

    def test_degraded_keeps_only_essential(self):
        d = DecisionStage()
        d.set_degraded(True)
        kept = d.gate(self.all_actions(), 1.0)
        assert [s.action for s in kept] == [
            ActionType.STOP, ActionType.RESTART, ActionType.START
        ]
        assert [(o.action, o.reason, o.time) for o in d.outcomes] == [
            (ActionType.ADDCPU, Reason.GATED_DEGRADED, 1.0),
            (ActionType.RMCPU, Reason.GATED_DEGRADED, 1.0),
        ]
        assert d.log.of_type(Outcome) == d.outcomes
        assert reason_counts(d.log) == {Reason.GATED_DEGRADED: 2}

    def test_gate_state_round_trips(self):
        d = DecisionStage()
        d.set_degraded(True)
        d.gate(self.all_actions(), 1.0)
        state = d.state_dict()
        assert "outcome_counts" not in state  # the outcomes are in the run log
        fresh = DecisionStage()
        fresh.load_state_dict(state)
        assert fresh.degraded and fresh.state_dict() == state
        fresh.load_state_dict({**state, "outcome_counts": {"gated-degraded": 2}})  # older
        assert fresh.state_dict() == state

    def test_a_resumed_run_keeps_every_gated_count(self, monkeypatch, tmp_path):
        """gate() is not replayed on resume, and its outcomes are in the
        run log, which outlives the controller: a run that crashes twice
        between snapshots ends with an outcome for every suggestion its
        live ticks gated."""
        stages: list[DecisionStage] = []
        gated = [0]
        gate = DecisionStage.gate

        def spy(self, suggestions, now):
            kept = gate(self, suggestions, now)
            stages.append(self)
            gated[0] += len(suggestions) - len(kept)
            return kept

        monkeypatch.setattr(DecisionStage, "gate", spy)
        result = run_gray_scott_experiment(
            "summit", seed=3, xml_extra=CHAOS_XML, crash_times=(900.0, 1900.0),
            journal=JournalSpec(dir=os.path.join(tmp_path, "wal")),
        )
        assert result.meta["crashes"] == [900.0, 1900.0]
        assert len({id(stage) for stage in stages}) == 3
        assert gated[0] and reason_counts(result.launcher.log).get(Reason.GATED_DEGRADED) == gated[0]
        assert stages[-1].log is result.launcher.log
