"""Tests for policies and the Decision stage."""

import pytest

from repro.core import ActionType, DecisionStage, MetricUpdate, PolicyApplication, PolicySpec
from repro.core.policy import PolicyRuntime, eval_condition
from repro.errors import PolicyError


def update(sensor="PACE", task="Iso", gran="task", value=40.0, time=0.0, wf="W", step=-1):
    key = (task,) if gran in ("task", "node-task") else (wf,)
    return MetricUpdate(sensor_id=sensor, workflow_id=wf, task=task if gran in ("task", "node-task") else "",
                        granularity=gran, key=key, value=value, time=time, step=step)


def spec(**kw):
    defaults = dict(policy_id="P", sensor_id="PACE", eval_op="GT", threshold=36.0,
                    action=ActionType.ADDCPU, granularity="task",
                    history_window=1, frequency=5.0)
    defaults.update(kw)
    return PolicySpec(**defaults)


def app(**kw):
    defaults = dict(policy_id="P", workflow_id="W", act_on_tasks=("Iso",), assess_task="Iso")
    defaults.update(kw)
    return PolicyApplication(**defaults)


class TestEvalCondition:
    def test_all_ops(self):
        assert eval_condition("GT", 2, 1) and not eval_condition("GT", 1, 1)
        assert eval_condition("LT", 0, 1) and not eval_condition("LT", 1, 1)
        assert eval_condition("GE", 1, 1)
        assert eval_condition("LE", 1, 1)
        assert eval_condition("EQ", 374.0, 374) and not eval_condition("EQ", 374.5, 374)
        assert eval_condition("NE", 3, 4)

    def test_unknown_op(self):
        with pytest.raises(PolicyError):
            eval_condition("ALMOST", 1, 1)


class TestPolicyRuntime:
    def test_matching_rules(self):
        rt = PolicyRuntime(spec(), app())
        assert rt.ingest(update(task="Iso"))
        assert not rt.ingest(update(task="FFT"))          # wrong assess task
        assert not rt.ingest(update(sensor="OTHER"))       # wrong sensor
        assert not rt.ingest(update(gran="workflow"))      # wrong granularity
        assert not rt.ingest(update(wf="OTHERWF"))         # wrong workflow

    def test_workflow_granularity_ignores_assess_filter(self):
        rt = PolicyRuntime(spec(granularity="workflow"), app(assess_task="XGCA"))
        assert rt.ingest(update(gran="workflow"))

    def test_instantaneous_fires_on_any_pending_value(self):
        rt = PolicyRuntime(spec(eval_op="EQ", threshold=374.0), app())
        rt.ingest(update(value=373.0, time=1.0))
        rt.ingest(update(value=374.0, time=2.0))
        rt.ingest(update(value=375.0, time=3.0))
        actions = rt.evaluate(5.0)
        assert len(actions) == 1
        a = actions[0]
        assert a.metric_value == 374.0 and a.trigger_time == 2.0

    def test_instantaneous_values_consumed_once(self):
        rt = PolicyRuntime(spec(), app())
        rt.ingest(update(value=50.0))
        assert rt.evaluate(5.0)
        assert rt.evaluate(10.0) == []  # no new data

    def test_windowed_keeps_firing_without_new_data(self):
        rt = PolicyRuntime(spec(history_window=5, history_op="AVG"), app())
        rt.ingest(update(value=50.0))
        assert rt.evaluate(5.0)
        assert rt.evaluate(10.0)  # window still in violation

    def test_window_average_gates_firing(self):
        rt = PolicyRuntime(spec(history_window=4, history_op="AVG"), app())
        for v in (50.0, 30.0, 30.0, 30.0):  # avg 35 < 36
            rt.ingest(update(value=v))
        assert rt.evaluate(5.0) == []

    def test_frequency_gating_on_absolute_grid(self):
        rt = PolicyRuntime(spec(), app())
        rt.ingest(update(value=50.0))
        assert rt.evaluate(7.0)   # first evaluation
        rt.ingest(update(value=50.0))
        assert rt.evaluate(9.0) == []  # same 5 s bucket
        rt.ingest(update(value=50.0))
        assert rt.evaluate(10.0)  # next bucket

    def test_action_params_merge_spec_defaults(self):
        s = spec(default_params={"adjust-by": 10, "mode": "soft"})
        a = app(action_params={"adjust-by": 20})
        rt = PolicyRuntime(s, a)
        rt.ingest(update(value=99.0))
        action = rt.evaluate(5.0)[0]
        assert action.params == {"adjust-by": 20, "mode": "soft"}

    def test_one_action_per_act_on_task(self):
        rt = PolicyRuntime(spec(), app(act_on_tasks=("A", "B")))
        rt.ingest(update(value=99.0))
        actions = rt.evaluate(5.0)
        assert [a.target for a in actions] == ["A", "B"]

    def test_mismatched_ids_rejected(self):
        with pytest.raises(PolicyError):
            PolicyRuntime(spec(policy_id="X"), app(policy_id="Y"))

    def test_trend_preanalysis(self):
        rt = PolicyRuntime(
            spec(history_window=5, history_op="TREND", eval_op="GT", threshold=1.0), app()
        )
        for i, v in enumerate([10.0, 12.0, 14.0, 16.0]):
            rt.ingest(update(value=v, time=float(i)))
        actions = rt.evaluate(5.0)
        assert actions and actions[0].metric_value == pytest.approx(2.0)

    def test_reset_history(self):
        rt = PolicyRuntime(spec(history_window=5), app())
        rt.ingest(update(value=99.0))
        rt.reset_history()
        assert rt.evaluate(5.0) == []


class TestDecisionStage:
    def make_stage(self):
        stage = DecisionStage()
        stage.add_policy(spec())
        stage.apply_policy(app())
        return stage

    def test_ingest_and_tick(self):
        stage = self.make_stage()
        stage.ingest([update(value=50.0)])
        actions = stage.tick(5.0)
        assert len(actions) == 1 and actions[0].action == ActionType.ADDCPU
        assert stage.updates_seen == 1 and stage.updates_matched == 1

    def test_duplicate_policy_rejected(self):
        stage = self.make_stage()
        with pytest.raises(PolicyError):
            stage.add_policy(spec())

    def test_apply_unknown_policy_rejected(self):
        stage = DecisionStage()
        with pytest.raises(PolicyError):
            stage.apply_policy(app())

    def test_on_task_restart_clears_windowed_only(self):
        stage = DecisionStage()
        stage.add_policy(spec(policy_id="WINDOWED", history_window=5))
        stage.add_policy(spec(policy_id="INSTANT"))
        rt_w = stage.apply_policy(app(policy_id="WINDOWED"))
        rt_i = stage.apply_policy(app(policy_id="INSTANT"))
        stage.ingest([update(value=99.0)])
        stage.on_task_restart("Iso")
        assert rt_w.evaluate(5.0) == []   # window cleared
        assert rt_i.evaluate(5.0)          # pending kept

    def test_multiple_policies_same_sensor(self):
        stage = DecisionStage()
        stage.add_policy(spec(policy_id="INC", eval_op="GT", threshold=36.0))
        stage.add_policy(spec(policy_id="DEC", eval_op="LT", threshold=24.0,
                              action=ActionType.RMCPU))
        stage.apply_policy(app(policy_id="INC"))
        stage.apply_policy(app(policy_id="DEC"))
        stage.ingest([update(value=20.0)])
        actions = stage.tick(5.0)
        assert [a.policy_id for a in actions] == ["DEC"]
