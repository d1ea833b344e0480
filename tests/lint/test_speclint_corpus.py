"""Diagnostic corpus: one triggering fixture and one clean near-miss per
spec-verifier code (DY100–DY407), asserting exact code and location."""

from __future__ import annotations

import pytest

from repro.cluster.machine import deepthought2
from repro.lint import CODES, Severity, lint_xml_text, verify_spec
from repro.wms.spec import TaskSpec, WorkflowSpec
from repro.xmlspec.parser import parse_dyflow_xml


# --------------------------------------------------------------------------- #
# fixture-building helpers
# --------------------------------------------------------------------------- #
def sensor(sid: str = "S", extra: str = "") -> str:
    return (
        f'<sensor id="{sid}" type="DISKSCAN">'
        '<group-by><group granularity="task" reduction-operation="MAX"/>'
        '<group granularity="workflow" reduction-operation="MAX"/></group-by>'
        f"{extra}</sensor>"
    )


def mt(task: str = "A", sid: str = "S") -> str:
    return (
        f'<monitor-task name="{task}" workflowId="W">'
        f'<use-sensor sensor-id="{sid}" info="nsteps"/></monitor-task>'
    )


def policy(
    pid: str = "P",
    op: str = "GT",
    thr: str = "5",
    action: str = "STOP",
    gran: str = "task",
    sid: str = "S",
) -> str:
    return (
        f'<policy id="{pid}"><eval operation="{op}" threshold="{thr}"/>'
        f'<sensors-to-use><use-sensor id="{sid}" granularity="{gran}"/></sensors-to-use>'
        f"<action>{action}</action><frequency seconds=\"5\"/></policy>"
    )


def apply_policy(
    pid: str = "P", assess: str = "A", act: str = "A", params: str = ""
) -> str:
    return (
        f'<apply-policy policyId="{pid}" assess-task="{assess}">'
        f"<act-on-tasks> {act} </act-on-tasks>{params}</apply-policy>"
    )


def rule(body: str) -> str:
    return (
        "<arbitration><rules>"
        f'<rule-for workflowId="W">{body}</rule-for>'
        "</rules></arbitration>"
    )


def doc(
    sensors: str = "",
    mts: str = "",
    policies: str = "",
    applies: str = "",
    arbitration: str = "",
    extra: str = "",
) -> str:
    decision = ""
    if policies or applies:
        decision = (
            f"<decision><policies>{policies}</policies>"
            f'<apply-on workflowId="W">{applies}</apply-on></decision>'
        )
    return (
        "<dyflow>"
        f"<monitor><sensors>{sensors}</sensors>"
        f"<monitor-tasks>{mts}</monitor-tasks></monitor>"
        f"{decision}{arbitration}{extra}"
        "</dyflow>"
    )


#: A fully clean document: sensor S feeds task A, policy P stops A,
#: a rule ranks both.
CLEAN = doc(
    sensors=sensor(),
    mts=mt(),
    policies=policy(),
    applies=apply_policy(),
    arbitration=rule(
        '<task-priorities><task-priority name="A" priority="0"/></task-priorities>'
        '<policy-priorities><policy-priority name="P" priority="0"/></policy-priorities>'
    ),
)


def tiny_workflow(*tasks: tuple[str, int, bool]) -> WorkflowSpec:
    """Tasks as (name, nprocs, autostart) triples on one workflow."""
    return WorkflowSpec(
        workflow_id="W",
        tasks=[
            TaskSpec(name=name, app=None, nprocs=n, autostart=auto)
            for name, n, auto in tasks
        ],
    )


def codes_of(xml: str, machine=None, workflow=None) -> dict[str, list]:
    out: dict[str, list] = {}
    for d in lint_xml_text(xml, machine=machine, workflow=workflow):
        out.setdefault(d.code, []).append(d)
    return out


def assert_triggers(diags: dict[str, list], code: str, loc_fragment: str) -> None:
    assert code in diags, f"{code} not triggered; got {sorted(diags)}"
    locations = [str(d.location) for d in diags[code]]
    assert any(loc_fragment in loc for loc in locations), (
        f"{code} fired at {locations}, expected a location containing "
        f"{loc_fragment!r}"
    )


# --------------------------------------------------------------------------- #
# the corpus: (code, expected location fragment, trigger, clean near-miss)
# each entry is a callable pair so machine/workflow context can differ
# --------------------------------------------------------------------------- #
DT2_ONE_NODE = deepthought2(num_nodes=1)  # 20 cores on one node

CORPUS = {
    "DY100": dict(
        loc="dyflow",
        trigger=lambda: codes_of("<dyflow><monitor></dyflow>"),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY101": dict(
        loc="monitor-task[@name='A']",
        trigger=lambda: codes_of(doc(sensors=sensor(), mts=mt(sid="NOPE"))),
        clean=lambda: codes_of(doc(sensors=sensor(), mts=mt())),
    ),
    "DY102": dict(
        loc="policy[@id='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(sid="NOPE"),
                applies=apply_policy())
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY103": dict(
        loc="apply-policy[@policyId='NOPE']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy() + apply_policy(pid="NOPE"))
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY104": dict(
        loc="policy[@id='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(gran="node-task"),
                applies=apply_policy())
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY105": dict(
        loc="rule-for[@workflowId='W']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy(),
                arbitration=rule(
                    '<policy-priorities>'
                    '<policy-priority name="NOPE" priority="0"/>'
                    "</policy-priorities>"
                ))
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY106": dict(
        loc="rule-for[@workflowId='W']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy(),
                arbitration=rule(
                    '<task-priorities>'
                    '<task-priority name="GHOST" priority="0"/>'
                    "</task-priorities>"
                ))
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY107": dict(
        loc="sensor[@id='S']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(extra='<join sensor-id="NOPE" operation="DIV"/>'),
                mts=mt(), policies=policy(), applies=apply_policy())
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(extra='<join sensor-id="S2" operation="DIV"/>')
                + sensor("S2"),
                mts=mt(), policies=policy(), applies=apply_policy())
        ),
    ),
    "DY108": dict(
        loc="sensor[@id='UNUSED']",
        trigger=lambda: codes_of(
            doc(sensors=sensor() + sensor("UNUSED"), mts=mt(),
                policies=policy(), applies=apply_policy())
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY109": dict(
        loc="policy[@id='Q']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy() + policy(pid="Q", action="RECONFIG"),
                applies=apply_policy())
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY110": dict(
        loc="monitor-task[@name='B']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt() + mt(task="B"),
                policies=policy(), applies=apply_policy()),
            workflow={"A"},
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt() + mt(task="B"),
                policies=policy(), applies=apply_policy()),
            workflow={"A", "B"},
        ),
    ),
    "DY111": dict(
        loc="apply-policy[@policyId='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy(act="A GHOST")),
            workflow={"A"},
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy(act="A GHOST")),
            workflow={"A", "GHOST"},
        ),
    ),
    "DY112": dict(
        loc="apply-policy[@policyId='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy(assess="B"))
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt() + mt(task="B"),
                policies=policy(), applies=apply_policy(assess="B"))
        ),
    ),
    "DY201": dict(
        loc="dyflow",
        trigger=lambda: codes_of(
            CLEAN, machine=DT2_ONE_NODE,
            workflow=tiny_workflow(("A", 12, True), ("B", 12, True)),
        ),
        clean=lambda: codes_of(
            CLEAN, machine=DT2_ONE_NODE,
            workflow=tiny_workflow(("A", 8, True), ("B", 8, True)),
        ),
    ),
    "DY202": dict(
        loc="dyflow",
        trigger=lambda: codes_of(
            CLEAN, machine=DT2_ONE_NODE,
            workflow=tiny_workflow(("A", 30, False)),
        ),
        clean=lambda: codes_of(
            CLEAN, machine=DT2_ONE_NODE,
            workflow=tiny_workflow(("A", 10, False)),
        ),
    ),
    "DY203": dict(
        loc="apply-policy[@policyId='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(action="ADDCPU"),
                applies=apply_policy(params=(
                    '<action-params><param key="adjust-by" value="1000"/>'
                    "</action-params>"
                ))),
            machine=DT2_ONE_NODE,
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(action="ADDCPU"),
                applies=apply_policy(params=(
                    '<action-params><param key="adjust-by" value="2"/>'
                    "</action-params>"
                ))),
            machine=DT2_ONE_NODE,
        ),
    ),
    "DY205": dict(
        loc="dyflow",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(action="ADDCPU"),
                applies=apply_policy(params=(
                    '<action-params><param key="adjust-by" value="8"/>'
                    "</action-params>"
                ))),
            machine=DT2_ONE_NODE,
            workflow=tiny_workflow(("A", 12, True), ("B", 4, True)),
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(action="ADDCPU"),
                applies=apply_policy(params=(
                    '<action-params><param key="adjust-by" value="4"/>'
                    "</action-params>"
                ))),
            machine=DT2_ONE_NODE,
            workflow=tiny_workflow(("A", 12, True), ("B", 4, True)),
        ),
    ),
    "DY204": dict(
        loc="rule-for[@workflowId='W']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(),
                applies=apply_policy(),
                arbitration=rule(
                    '<task-dep name="A" parent="B" type="TIGHT"/>'
                    '<task-dep name="B" parent="A" type="TIGHT"/>'
                ))
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt() + mt(task="B"), policies=policy(),
                applies=apply_policy(),
                arbitration=rule('<task-dep name="A" parent="B" type="TIGHT"/>'))
        ),
    ),
    "DY301": dict(
        loc="policy[@id='Q']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy(pid="P", op="GT", thr="5")
                + policy(pid="Q", op="GT", thr="10"),
                applies=apply_policy(pid="P") + apply_policy(pid="Q"))
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy(pid="P", op="GT", thr="5")
                + policy(pid="Q", op="LT", thr="3"),
                applies=apply_policy(pid="P") + apply_policy(pid="Q"))
        ),
    ),
    "DY302": dict(
        loc="apply-policy[@policyId='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy(pid="P", op="GT", thr="5", action="STOP")
                + policy(pid="Q", op="GT", thr="8", action="START"),
                applies=apply_policy(pid="P") + apply_policy(pid="Q"))
        ),
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy(pid="P", op="GT", thr="5", action="STOP")
                + policy(pid="Q", op="GT", thr="8", action="START"),
                applies=apply_policy(pid="P") + apply_policy(pid="Q"),
                arbitration=rule(
                    "<policy-priorities>"
                    '<policy-priority name="P" priority="0"/>'
                    '<policy-priority name="Q" priority="1"/>'
                    "</policy-priorities>"
                ))
        ),
    ),
    "DY303": dict(
        loc="policy[@id='P']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(), policies=policy(thr="inf"),
                applies=apply_policy())
        ),
        clean=lambda: codes_of(CLEAN),
    ),
    "DY304": dict(
        loc="policy[@id='Q']",
        trigger=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy(pid="P", op="GT", thr="30", action="ADDCPU")
                + policy(pid="Q", op="GT", thr="50", action="RMCPU"),
                applies=apply_policy(pid="P") + apply_policy(pid="Q"),
                arbitration=rule(
                    "<policy-priorities>"
                    '<policy-priority name="P" priority="0"/>'
                    '<policy-priority name="Q" priority="1"/>'
                    "</policy-priorities>"
                ))
        ),
        # Priorities reversed: the narrow policy outranks the wide one,
        # so its action survives arbitration whenever both fire.
        clean=lambda: codes_of(
            doc(sensors=sensor(), mts=mt(),
                policies=policy(pid="P", op="GT", thr="30", action="ADDCPU")
                + policy(pid="Q", op="GT", thr="50", action="RMCPU"),
                applies=apply_policy(pid="P") + apply_policy(pid="Q"),
                arbitration=rule(
                    "<policy-priorities>"
                    '<policy-priority name="P" priority="1"/>'
                    '<policy-priority name="Q" priority="0"/>'
                    "</policy-priorities>"
                ))
        ),
    ),
    "DY401": dict(
        loc="resilience/retry",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><retry backoff-base="4.0" backoff-max="1.0"/>'
                "</resilience></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><retry backoff-base="1.0" backoff-max="60.0"/>'
                "</resilience></dyflow>",
            )
        ),
    ),
    "DY402": dict(
        loc="resilience/watchdog",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><watchdog heartbeat-timeout="5.0" poll="10.0"/>'
                "</resilience></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><watchdog heartbeat-timeout="120.0" poll="10.0"/>'
                "</resilience></dyflow>",
            )
        ),
    ),
    "DY403": dict(
        loc="journal",
        trigger=lambda: codes_of(
            CLEAN.replace("</dyflow>", '<journal fsync="bogus"/></dyflow>')
        ),
        clean=lambda: codes_of(
            CLEAN.replace("</dyflow>", '<journal fsync="batch"/></dyflow>')
        ),
    ),
    "DY404": dict(
        loc="observability",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<observability><slo metric="plan.response" stat="p95" '
                'op="BOGUS" threshold="60.0"/></observability></dyflow>',
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<observability><slo metric="plan.response" stat="p95" '
                'op="LT" threshold="60.0"/></observability></dyflow>',
            )
        ),
    ),
    "DY406": dict(
        loc="resilience/quarantine",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><quarantine failures="3" window="600.0" '
                'cooldown="60.0"/></resilience></dyflow>',
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><quarantine failures="3" window="600.0" '
                'cooldown="1800.0"/></resilience></dyflow>',
            )
        ),
    ),
    "DY407": dict(
        loc="resilience",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><retry max-retries="-1"/></resilience></dyflow>',
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><retry max-retries="3"/></resilience></dyflow>',
            )
        ),
    ),
    "DY408": dict(
        loc="resilience/network",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><network drop-prob="0.1" max-retransmits="0"/>'
                "</resilience></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><network drop-prob="0.1" max-retransmits="5"/>'
                "</resilience></dyflow>",
            )
        ),
    ),
    "DY410": dict(
        loc="tenants/tenant[1]",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice" quota-cores="40"/>'
                '<tenant id="bob" quota-cores="41"/>'
                "</tenants></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice" quota-cores="40"/>'
                '<tenant id="bob" quota-cores="20"/>'
                "</tenants></dyflow>",
            )
        ),
    ),
    "DY411": dict(
        loc="tenants/executor",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice"/>'
                '<executor kill-prob="0.2" max-attempts="1"/>'
                "</tenants></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice"/>'
                '<executor kill-prob="0.2" max-attempts="3"/>'
                "</tenants></dyflow>",
            )
        ),
    ),
    "DY412": dict(
        loc="observability/slo[0]",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<observability><slo metric="fleet.cell.latency" stat="p95" '
                'op="LT" threshold="120.0" tenant="mallory"/></observability>'
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice"/>'
                "</tenants></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<observability><slo metric="fleet.cell.latency" stat="p95" '
                'op="LT" threshold="120.0" tenant="alice"/></observability>'
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice"/>'
                "</tenants></dyflow>",
            )
        ),
    ),
    "DY413": dict(
        loc="tenants",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice" quota-cores="30"/>'
                '<tenant id="bob" quota-cores="30"/>'
                "</tenants></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<tenants nodes="2" cores-per-node="20">'
                '<tenant id="alice" quota-cores="20"/>'
                '<tenant id="bob" quota-cores="20"/>'
                "</tenants></dyflow>",
            )
        ),
    ),
    "DY409": dict(
        loc="resilience/network/partition[0]",
        trigger=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><watchdog heartbeat-timeout="120.0"/>'
                '<network><partition start="10.0" duration="300.0"/></network>'
                "</resilience></dyflow>",
            )
        ),
        clean=lambda: codes_of(
            CLEAN.replace(
                "</dyflow>",
                '<resilience><watchdog heartbeat-timeout="120.0"/>'
                '<network><partition start="10.0" duration="60.0"/></network>'
                "</resilience></dyflow>",
            )
        ),
    ),
}


@pytest.mark.parametrize("code", sorted(CORPUS))
def test_trigger_fires_exact_code_and_location(code):
    case = CORPUS[code]
    assert_triggers(case["trigger"](), code, case["loc"])


@pytest.mark.parametrize("code", sorted(CORPUS))
def test_clean_near_miss_does_not_fire(code):
    assert code not in CORPUS[code]["clean"]()


def test_corpus_covers_every_spec_code():
    spec_codes = {c for c, info in CODES.items() if info.engine == "spec"}
    assert spec_codes == set(CORPUS)


def test_clean_document_has_no_findings():
    assert codes_of(CLEAN) == {}


def test_diagnostics_are_deterministic():
    xml = CORPUS["DY302"]["trigger"]
    first = [d.format() for ds in xml().values() for d in ds]
    second = [d.format() for ds in xml().values() for d in ds]
    assert first == second


def test_verify_spec_matches_lint_xml_text():
    spec = parse_dyflow_xml(CLEAN)
    assert verify_spec(spec) == []


def test_severity_defaults_respected():
    diags = CORPUS["DY301"]["trigger"]()["DY301"]
    assert all(d.severity is Severity.WARNING for d in diags)
    diags = CORPUS["DY302"]["trigger"]()["DY302"]
    assert all(d.severity is Severity.ERROR for d in diags)
