"""Round-trip property: parse(write(spec)) == spec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ActionType
from repro.core.policy import PolicyApplication, PolicySpec
from repro.core.sensors import GroupBySpec, SensorSpec
from repro.wms.spec import CouplingType, DependencySpec
from repro.xmlspec import DyflowSpec, RuleSpec, MonitorTaskSpec, parse_dyflow_xml, write_dyflow_xml

names = st.text(alphabet="abcdefgXYZ_", min_size=1, max_size=8)
granularities = st.sampled_from(["task", "node-task", "workflow", "node-workflow"])
reductions = st.sampled_from(["MAX", "MIN", "AVG", "SUM", "FIRST", "LAST", "COUNT"])


@st.composite
def sensor_specs(draw, sensor_id):
    grans = draw(st.lists(granularities, min_size=1, max_size=4, unique=True))
    group_by = tuple(GroupBySpec(g, draw(reductions)) for g in grans)
    preprocess = draw(st.sampled_from([None, "NORM", "MEAN", "MAX"]))
    return SensorSpec(sensor_id=sensor_id, source_type=draw(
        st.sampled_from(["ADIOS2", "TAUADIOS2", "DISKSCAN", "ERRORSTATUS"])),
        group_by=group_by, preprocess=preprocess)


@st.composite
def dyflow_specs(draw):
    sensor_ids = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    sensors = {sid: draw(sensor_specs(sid)) for sid in sensor_ids}
    policies = {}
    applications = []
    for i in range(draw(st.integers(0, 3))):
        pid = f"P{i}"
        sid = draw(st.sampled_from(sensor_ids))
        gran = draw(st.sampled_from([g.granularity for g in sensors[sid].group_by]))
        policies[pid] = PolicySpec(
            policy_id=pid,
            sensor_id=sid,
            granularity=gran,
            eval_op=draw(st.sampled_from(["GT", "LT", "EQ", "GE", "LE", "NE"])),
            threshold=draw(st.integers(-100, 500)) * 1.0,
            action=draw(st.sampled_from(list(ActionType))),
            # With window=1 the writer omits <history>, so the op must be
            # the parser default (it is semantically unused anyway).
            history_window=(window := draw(st.integers(1, 20))),
            history_op=draw(st.sampled_from(["AVG", "MAX", "MIN", "LAST"])) if window > 1 else "AVG",
            frequency=float(draw(st.integers(1, 60))),
        )
        applications.append(
            PolicyApplication(
                policy_id=pid,
                workflow_id="WF",
                act_on_tasks=tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True))),
                assess_task=draw(st.sampled_from(["", "taskA"])),
                action_params={"adjust-by": draw(st.integers(1, 50))} if draw(st.booleans()) else {},
            )
        )
    rules = {}
    if draw(st.booleans()):
        rules["WF"] = RuleSpec(
            workflow_id="WF",
            task_priorities={draw(names): draw(st.integers(0, 5))},
            policy_priorities={pid: i for i, pid in enumerate(policies)},
            dependencies=[
                DependencySpec("cons", "prod", draw(st.sampled_from(list(CouplingType))))
            ],
        )
    monitor_tasks = [
        MonitorTaskSpec(task="T", workflow_id="WF", sensor_id=draw(st.sampled_from(sensor_ids)),
                        info_source=draw(st.sampled_from([None, "glob.*"])),
                        info=draw(st.sampled_from([None, "looptime"])))
    ]
    return DyflowSpec(sensors=sensors, monitor_tasks=monitor_tasks,
                      policies=policies, applications=applications, rules=rules)


class TestRoundTrip:
    @settings(max_examples=40)
    @given(dyflow_specs())
    def test_parse_write_roundtrip(self, spec):
        text = write_dyflow_xml(spec)
        back = parse_dyflow_xml(text)
        assert back.sensors == spec.sensors
        assert back.policies == spec.policies
        assert back.applications == spec.applications
        assert {k: (r.task_priorities, r.policy_priorities, r.dependencies)
                for k, r in back.rules.items()} == {
            k: (r.task_priorities, r.policy_priorities, r.dependencies)
            for k, r in spec.rules.items()
        }
        assert [(m.task, m.sensor_id, m.info_source, m.info) for m in back.monitor_tasks] == [
            (m.task, m.sensor_id, m.info_source, m.info) for m in spec.monitor_tasks
        ]

    def test_written_xml_is_pretty(self):
        spec = DyflowSpec(sensors={"S": SensorSpec("S", "ADIOS2")})
        text = write_dyflow_xml(spec)
        assert text.startswith("<?xml")
        assert "<dyflow>" in text and "\n" in text
