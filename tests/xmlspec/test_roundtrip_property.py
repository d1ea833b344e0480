"""Property-based XML round-trip over the *complete* element set.

Extends the basic round-trip test with the elements it leaves out —
sensor joins, monitor-task/use-sensor parameters, apply-policy
action-params, ``<resilience>`` (all six children), ``<telemetry>``,
``<journal>`` and ``<observability>`` (SLOs, anomaly detectors,
exports) — and checks the stronger *fixed-point* property: one
write/parse cycle normalizes a spec, after which further cycles change
nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import ExecutorSpec, TenantSpec, TenantsSpec
from repro.core import ActionType
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.sensors import GroupBySpec, JoinSpec, SensorSpec
from repro.fabric import LinkOverride, NetworkSpec, PartitionWindow
from repro.resilience import (
    CheckpointSpec,
    FaultModelSpec,
    QuarantineSpec,
    ResilienceSpec,
    RetryPolicy,
    WatchdogSpec,
)
from repro.journal import JournalSpec
from repro.observability import AnomalySpec, ObservabilitySpec, SloSpec
from repro.telemetry import TelemetrySpec
from repro.util.xmlfield import xml_fields
from repro.wms.spec import CouplingType, DependencySpec
from repro.xmlspec import (
    DyflowSpec,
    MonitorTaskSpec,
    RuleSpec,
    parse_dyflow_xml,
    write_dyflow_xml,
)

from tests.xmlspec.strategies import names, safe_text, strategy_for

param_values = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    safe_text,
)
params = st.dictionaries(names, param_values, max_size=3)
granularities = st.sampled_from(["task", "node-task", "workflow", "node-workflow"])
reductions = st.sampled_from(["MAX", "MIN", "AVG", "SUM", "MEDIAN", "FIRST", "LAST", "COUNT"])


@st.composite
def sensor_specs(draw, sensor_id, all_ids):
    grans = draw(st.lists(granularities, min_size=1, max_size=4, unique=True))
    group_by = tuple(GroupBySpec(g, draw(reductions)) for g in grans)
    join = None
    if draw(st.booleans()):
        join = JoinSpec(draw(st.sampled_from(all_ids)),
                        draw(st.sampled_from(["DIV", "MUL", "ADD", "SUB"])))
    return SensorSpec(
        sensor_id=sensor_id,
        source_type=draw(st.sampled_from(
            ["ADIOS2", "TAUADIOS2", "DISKSCAN", "FILEREAD", "ERRORSTATUS"])),
        group_by=group_by,
        preprocess=draw(st.sampled_from(
            [None, "IDENTITY", "NORM", "MEAN", "SUM", "MAX", "MIN", "ABSMAX", "STD"])),
        join=join,
    )


@st.composite
def dyflow_specs(draw):
    sensor_ids = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    sensors = {sid: draw(sensor_specs(sid, sensor_ids)) for sid in sensor_ids}
    policies = {}
    applications = []
    for i in range(draw(st.integers(0, 3))):
        pid = f"P{i}"
        sid = draw(st.sampled_from(sensor_ids))
        gran = draw(st.sampled_from([g.granularity for g in sensors[sid].group_by]))
        window = draw(st.integers(1, 20))
        policies[pid] = PolicySpec(
            policy_id=pid,
            sensor_id=sid,
            granularity=gran,
            eval_op=draw(st.sampled_from(["GT", "LT", "EQ", "GE", "LE", "NE"])),
            threshold=draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
            action=draw(st.sampled_from(list(ActionType))),
            # Window 1 omits <history>, so the op must stay the parser default.
            history_window=window,
            history_op=draw(st.sampled_from(["AVG", "MAX", "MIN", "LAST"])) if window > 1 else "AVG",
            frequency=draw(st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
        )
        applications.append(
            PolicyApplication(
                policy_id=pid,
                workflow_id=draw(st.sampled_from(["WF", "WF2"])),
                act_on_tasks=tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True))),
                assess_task=draw(st.sampled_from(["", "taskA"])),
                action_params=draw(params),
            )
        )
    rules = {}
    if draw(st.booleans()):
        rules["WF"] = RuleSpec(
            workflow_id="WF",
            task_priorities=draw(st.dictionaries(names, st.integers(0, 9), max_size=3)),
            policy_priorities={pid: i for i, pid in enumerate(policies)},
            dependencies=[
                DependencySpec(draw(names), draw(names),
                               draw(st.sampled_from(list(CouplingType))))
                for _ in range(draw(st.integers(0, 2)))
            ],
        )
    tasks = draw(st.lists(names, min_size=0, max_size=3, unique=True))
    monitor_tasks = [
        MonitorTaskSpec(
            task=t,
            workflow_id="WF",
            sensor_id=draw(st.sampled_from(sensor_ids)),
            info_source=draw(st.sampled_from([None, "glob.*"])),
            info=draw(st.sampled_from([None, "looptime"])),
            params=draw(params),
        )
        for t in tasks
    ]
    return DyflowSpec(
        sensors=sensors,
        monitor_tasks=monitor_tasks,
        policies=policies,
        applications=applications,
        rules=rules,
        # The configuration sections come from their field declarations.
        **{
            x.attr: draw(st.one_of(st.none(), strategy_for(x.cls)))
            for x in xml_fields(DyflowSpec)
        },
    )


class TestFixedPoint:
    @settings(max_examples=60)
    @given(dyflow_specs())
    def test_one_cycle_reaches_the_fixed_point(self, spec):
        """write → parse → write reproduces the document byte for byte."""
        xml1 = write_dyflow_xml(spec)
        spec2 = parse_dyflow_xml(xml1)
        xml2 = write_dyflow_xml(spec2)
        assert xml1 == xml2
        assert parse_dyflow_xml(xml2) == spec2

    @settings(max_examples=60)
    @given(dyflow_specs())
    def test_every_section_survives_the_cycle(self, spec):
        back = parse_dyflow_xml(write_dyflow_xml(spec))
        assert back.sensors == spec.sensors
        assert back.policies == spec.policies
        # apply-policy elements are regrouped under per-workflow
        # <apply-on> blocks on write, so compare as a multiset.
        def app_key(a):
            return (a.workflow_id, a.policy_id, a.act_on_tasks, a.assess_task,
                    tuple(sorted(a.action_params.items(), key=repr)))

        assert sorted(map(app_key, back.applications), key=repr) == \
            sorted(map(app_key, spec.applications), key=repr)
        assert back.rules == spec.rules
        assert back.resilience == spec.resilience
        assert back.telemetry == spec.telemetry
        assert back.journal == spec.journal
        assert back.observability == spec.observability
        assert back.tenants == spec.tenants
        # monitor-tasks are regrouped by (task, workflow, source) on
        # write; with unique tasks the binding set is order-stable.
        def key(m):
            return (m.task, m.sensor_id, m.info_source, m.info,
                    tuple(sorted(m.params.items(), key=repr)))

        assert sorted(map(key, back.monitor_tasks), key=repr) == \
            sorted(map(key, spec.monitor_tasks), key=repr)

    @settings(max_examples=30)
    @given(params)
    def test_param_coercion_is_type_stable(self, values):
        spec = DyflowSpec(
            sensors={"S": SensorSpec("S", "ADIOS2")},
            monitor_tasks=[MonitorTaskSpec("T", "WF", "S", params=values)],
        )
        back = parse_dyflow_xml(write_dyflow_xml(spec))
        [mt] = back.monitor_tasks
        assert mt.params == values
        assert {k: type(v) for k, v in mt.params.items()} == \
            {k: type(v) for k, v in values.items()}


def test_full_document_with_all_elements_round_trips():
    """One deterministic spec exercising every element at once."""
    spec = DyflowSpec(
        sensors={
            "PACE": SensorSpec("PACE", "TAUADIOS2",
                               (GroupBySpec("task", "MAX"), GroupBySpec("workflow", "AVG")),
                               preprocess="NORM"),
            "CYCLES": SensorSpec("CYCLES", "ADIOS2",
                                 (GroupBySpec("task", "SUM"),),
                                 join=JoinSpec("PACE", "DIV")),
        },
        monitor_tasks=[
            MonitorTaskSpec("Iso", "WF", "PACE", info_source="*.bp", info="looptime",
                            params={"info-type": "double", "depth": 3}),
        ],
        policies={
            "INC": PolicySpec("INC", "PACE", "GT", 36.0, ActionType.ADDCPU,
                              history_window=10, history_op="AVG", frequency=5.0),
        },
        applications=[
            PolicyApplication("INC", "WF", ("Iso",), assess_task="Iso",
                              action_params={"adjust-by": 20}),
        ],
        rules={
            "WF": RuleSpec("WF", task_priorities={"Sim": 10, "Iso": 5},
                           policy_priorities={"INC": 1},
                           dependencies=[DependencySpec("Iso", "Sim", CouplingType.TIGHT)]),
        },
        resilience=ResilienceSpec(
            retry=RetryPolicy(max_retries=5, backoff_base=1.0, backoff_factor=2.0,
                              backoff_max=60.0, jitter=0.5),
            watchdog=WatchdogSpec(heartbeat_timeout=90.0, poll=5.0, kill_code=142),
            quarantine=QuarantineSpec(failures=2, window=300.0, cooldown=900.0),
            checkpoint=CheckpointSpec(every=25, resume=True),
            faults=FaultModelSpec(node_mtbf=40_000.0, node_dist="weibull",
                                  weibull_shape=1.5, node_repair_time=600.0,
                                  msg_drop_prob=0.01),
            network=NetworkSpec(
                latency=0.2, jitter=0.1, drop_prob=0.1, dup_prob=0.05,
                reorder_prob=0.05, ack_timeout=2.0, max_retransmits=5,
                breaker_failures=3, ingress_capacity=128, drain_per_tick=32,
                stale_after=20.0, degrade_after=3, recover_after=3,
                partitions=(PartitionWindow(600.0, 30.0),
                            PartitionWindow(900.0, 10.0, link="c1")),
                links=(LinkOverride("c1", latency=1.0, drop_prob=0.3),),
            ),
        ),
        telemetry=TelemetrySpec(jsonl_path="run/events.jsonl",
                                chrome_trace_path="run/trace.json"),
        journal=JournalSpec(dir="run/journal", fsync="batch",
                            batch_every=32, snapshot_every=10),
        observability=ObservabilitySpec(
            eval_every=5.0,
            openmetrics_path="run/metrics.prom",
            report_path="run/report.md", report_json_path="run/report.json",
            top_n=7,
            slos=(
                SloSpec(metric="plan.response", stat="p95", op="LT",
                        threshold=60.0, severity="warning",
                        fire_after=2, clear_after=3),
                SloSpec(metric="cluster.utilization", stat="value", op="GE",
                        threshold=0.5, severity="info"),
                SloSpec(metric="fleet.cell.latency", stat="p95", op="LT",
                        threshold=120.0, severity="warning", tenant="alice"),
            ),
            anomalies=(
                AnomalySpec(metric="stage.monitor.latency", stat="p95",
                            window=30, z=4.0, alpha=0.2, min_points=6,
                            severity="critical"),
            ),
        ),
        tenants=TenantsSpec(
            nodes=8, cores_per_node=42,
            tenants=(
                TenantSpec("alice", quota_cores=168, weight=2.0, max_queue=16),
                TenantSpec("bob", quota_cores=84, weight=1.0, max_queue=8),
            ),
            executor=ExecutorSpec(workers=4, cell_timeout=30.0, max_attempts=3,
                                  backoff_base=0.5, backoff_factor=2.0,
                                  backoff_max=30.0, jitter=0.25, kill_prob=0.1),
            breaker=QuarantineSpec(failures=3, window=600.0, cooldown=1800.0),
        ),
    )
    xml1 = write_dyflow_xml(spec)
    back = parse_dyflow_xml(xml1)
    assert back == spec
    assert write_dyflow_xml(back) == xml1
