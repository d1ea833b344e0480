"""Tests for the XML parser against the paper's figures."""

import pytest

from repro.core import ActionType
from repro.errors import XmlSpecError
from repro.wms import CouplingType
from repro.xmlspec import parse_dyflow_xml

# Fig. 3: the PACE sensor.
FIG3 = """
<monitor>
  <sensors>
    <sensor id="PACE" type="TAUADIOS2">
      <group-by> <group granularity="task" reduction-operation="MAX"/> </group-by>
    </sensor>
  </sensors>
  <monitor-tasks>
    <monitor-task name="Isosurface" workflowId="GS-WORKFLOW" info-source="tau-iso.bp.*">
      <use-sensor sensor-id="PACE" info="looptime">
        <parameter key="info-type" value="double"/>
      </use-sensor>
    </monitor-task>
  </monitor-tasks>
</monitor>
"""

# Fig. 4: the PACE policies.
FIG4 = """
<decision>
  <policies>
    <policy id="INC_ON_PACE">
      <eval operation="GT" threshold="36" />
      <sensors-to-use> <use-sensor id="PACE" granularity="task" /> </sensors-to-use>
      <action> ADDCPU </action>
      <history window="10" operation="AVG" />
      <frequency seconds="5" /> </policy>
    <policy id="DEC_ON_PACE">
      <eval operation="LT" threshold="24" />
      <sensors-to-use> <use-sensor id="PACE" granularity="task" /> </sensors-to-use>
      <action> RMCPU </action>
      <history window="10" operation="AVG" />
      <frequency seconds="5" /> </policy>
  </policies>
  <apply-on workflowId="GS-WORKFLOW">
    <apply-policy policyId="INC_ON_PACE" assess-task="Isosurface">
      <act-on-tasks> Isosurface </act-on-tasks>
      <action-params> <param key="adjust-by" value="20" /> </action-params>
    </apply-policy>
  </apply-on>
</decision>
"""

# Fig. 5: arbitration rules.
FIG5 = """
<arbitration>
  <rules>
    <rule-for workflowId="GS-WORKFLOW">
      <task-priorities>
        <task-priority name="GrayScott" priority="0" />
      </task-priorities>
      <task-dependencies workflowId="GS-WORKFLOW">
        <task-dep name="Isosurface" type="TIGHT" parent="GrayScott" />
      </task-dependencies>
    </rule-for>
  </rules>
</arbitration>
"""


class TestSectionParsing:
    def test_fig3_sensor(self):
        spec = parse_dyflow_xml(FIG3)
        pace = spec.sensors["PACE"]
        assert pace.source_type == "TAUADIOS2"
        assert pace.group_by[0].granularity == "task"
        assert pace.group_by[0].reduction == "MAX"
        mt = spec.monitor_tasks[0]
        assert mt.task == "Isosurface" and mt.info == "looptime"
        assert mt.info_source == "tau-iso.bp.*"
        assert mt.params == {"info-type": "double"}

    def test_fig4_policies(self):
        spec = parse_dyflow_xml(f"<dyflow>{FIG3}{FIG4}</dyflow>")
        inc = spec.policies["INC_ON_PACE"]
        assert inc.eval_op == "GT" and inc.threshold == 36.0
        assert inc.action == ActionType.ADDCPU
        assert inc.history_window == 10 and inc.history_op == "AVG"
        assert inc.frequency == 5.0
        app = spec.applications[0]
        assert app.assess_task == "Isosurface"
        assert app.act_on_tasks == ("Isosurface",)
        assert app.action_params == {"adjust-by": 20}

    def test_fig5_rules(self):
        spec = parse_dyflow_xml(FIG5)
        rule = spec.rules["GS-WORKFLOW"]
        assert rule.task_priorities == {"GrayScott": 0}
        dep = rule.dependencies[0]
        assert dep.task == "Isosurface" and dep.parent == "GrayScott"
        assert dep.type == CouplingType.TIGHT

    def test_full_document_validates(self):
        spec = parse_dyflow_xml(f"<dyflow>{FIG3}{FIG4}{FIG5}</dyflow>")
        assert set(spec.policies) == {"INC_ON_PACE", "DEC_ON_PACE"}

    def test_fig10_frequency_typo_tolerated(self):
        """The paper's Fig. 10 writes <frequency> seconds="5" </frequency>."""
        xml = """
        <dyflow><monitor><sensors>
          <sensor id="STATUS" type="ERRORSTATUS">
            <group-by><group granularity="task" reduction-operation="FIRST"/></group-by>
          </sensor></sensors></monitor>
        <decision><policies>
          <policy id="RESTART_ON_FAILURE">
            <eval operation="GT" threshold="128"/>
            <sensors-to-use><use-sensor id="STATUS" granularity="task"/></sensors-to-use>
            <action> RESTART </action>
            <frequency> seconds="5" </frequency>
          </policy></policies></decision></dyflow>
        """
        spec = parse_dyflow_xml(xml)
        assert spec.policies["RESTART_ON_FAILURE"].frequency == 5.0


class TestValidation:
    def test_malformed_xml(self):
        with pytest.raises(XmlSpecError):
            parse_dyflow_xml("<dyflow><monitor>")

    def test_unexpected_root(self):
        with pytest.raises(XmlSpecError):
            parse_dyflow_xml("<nonsense/>")

    def test_policy_with_unknown_sensor(self):
        with pytest.raises(XmlSpecError, match="uses unknown sensor"):
            parse_dyflow_xml(f"<dyflow>{FIG4}</dyflow>")

    def test_policy_missing_eval(self):
        xml = """
        <decision><policies><policy id="P">
          <sensors-to-use><use-sensor id="S"/></sensors-to-use>
          <action> STOP </action>
        </policy></policies></decision>"""
        with pytest.raises(XmlSpecError, match="missing <eval>"):
            parse_dyflow_xml(xml)

    def test_policy_bad_action(self):
        xml = """
        <decision><policies><policy id="P">
          <eval operation="GT" threshold="1"/>
          <sensors-to-use><use-sensor id="S"/></sensors-to-use>
          <action> EXPLODE </action>
        </policy></policies></decision>"""
        with pytest.raises(XmlSpecError, match="unknown action"):
            parse_dyflow_xml(xml)

    def test_apply_policy_needs_act_on_tasks(self):
        xml = """
        <decision><apply-on workflowId="W">
          <apply-policy policyId="P"/>
        </apply-on></decision>"""
        with pytest.raises(XmlSpecError, match="act-on-tasks"):
            parse_dyflow_xml(xml)

    def test_policy_granularity_must_exist_on_sensor(self):
        xml = """
        <dyflow><monitor><sensors>
          <sensor id="S" type="ADIOS2">
            <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
          </sensor></sensors></monitor>
        <decision><policies><policy id="P">
          <eval operation="GT" threshold="1"/>
          <sensors-to-use><use-sensor id="S" granularity="workflow"/></sensors-to-use>
          <action> STOP </action>
        </policy></policies></decision></dyflow>"""
        with pytest.raises(XmlSpecError, match="granularity"):
            parse_dyflow_xml(xml)

    def test_duplicate_sensor_ids(self):
        xml = """
        <monitor><sensors>
          <sensor id="S" type="ADIOS2"/>
          <sensor id="S" type="ADIOS2"/>
        </sensors></monitor>"""
        with pytest.raises(XmlSpecError, match="duplicate sensor"):
            parse_dyflow_xml(xml)

    def test_unknown_dependency_type(self):
        xml = """
        <arbitration><rules><rule-for workflowId="W">
          <task-dep name="a" type="MAGNETIC" parent="b"/>
        </rule-for></rules></arbitration>"""
        with pytest.raises(XmlSpecError, match="dependency type"):
            parse_dyflow_xml(xml)

    @pytest.mark.parametrize("element,attribute,fragment", [
        ("slo", "threshold",
         '<observability><slo metric="m" threshold="abc"/></observability>'),
        ("eval", "threshold", FIG4.replace('threshold="36"', 'threshold="abc"', 1)),
        ("history", "window", FIG4.replace('window="10"', 'window="abc"', 1)),
        ("frequency", "seconds", FIG4.replace('seconds="5"', 'seconds="abc"', 1)),
        ("task-priority", "priority", FIG5.replace('priority="0"', 'priority="abc"', 1)),
        ("policy-priority", "priority",
         '<arbitration><rules><rule-for workflowId="W">'
         '<policy-priority name="P" priority="abc"/></rule-for></rules></arbitration>'),
    ], ids=["slo", "eval", "history", "frequency", "task-priority", "policy-priority"])
    def test_malformed_number_names_element_and_attribute(
        self, element, attribute, fragment
    ):
        with pytest.raises(XmlSpecError, match=f"<{element}> attribute '{attribute}'.*'abc'"):
            parse_dyflow_xml(fragment, validate=False)

    def test_fig10_frequency_typo_still_reports_bad_numbers(self):
        xml = FIG4.replace('<frequency seconds="5" />', '<frequency> seconds="abc" </frequency>', 1)
        with pytest.raises(XmlSpecError, match="<frequency> attribute 'seconds'"):
            parse_dyflow_xml(xml, validate=False)

    def test_misspelled_attribute_in_a_paper_section_is_rejected(self):
        xml = FIG4.replace('<history window="10"', '<history windw="10"', 1)
        with pytest.raises(XmlSpecError, match=r"unexpected <history> attribute 'windw' \(known"):
            parse_dyflow_xml(xml, validate=False)

    @pytest.mark.parametrize("element, attribute, fragment", [
        ("telemetry", "enabled", '<telemetry enabled="false"/>'),
        ("telemetry", "sample", '<telemetry sample="0.5"/>'),
        ("observability", "enabled", '<observability enabled="false"/>'),
        ("observability", "analysis", '<observability analysis="false"/>'),
        ("observability", "snapshot-every", '<observability snapshot-every="60"/>'),
        ("fleet", "enabled", '<observability><fleet enabled="false"/></observability>'),
        ("journal", "enabled", '<journal enabled="false"/>'),
        ("network", "enabled", '<resilience><network enabled="false"/></resilience>'),
    ], ids=["telemetry-enabled", "telemetry-sample", "observability-enabled",
            "observability-analysis", "observability-snapshot-every", "fleet-enabled",
            "journal-enabled", "network-enabled"])
    def test_a_section_has_no_off_switch(self, element, attribute, fragment):
        # A section is in effect because it is declared; leave it out to turn it off.
        with pytest.raises(XmlSpecError, match=f"unexpected <{element}> attribute '{attribute}'"):
            parse_dyflow_xml(f"<dyflow>{fragment}</dyflow>", validate=False)

    def test_param_coercion(self):
        spec = parse_dyflow_xml(f"<dyflow>{FIG3}{FIG4}</dyflow>")
        assert spec.applications[0].action_params["adjust-by"] == 20  # int, not str
        assert spec.monitor_tasks[0].params["info-type"] == "double"  # stays str


class TestScenarioXml:
    """The canned experiment XML documents must parse and validate."""

    def test_xgc_xml(self):
        from repro.experiments import XGC_XML
        spec = parse_dyflow_xml(XGC_XML)
        assert set(spec.policies) == {"RESTART_UNTIL_COND", "SWITCH_ON_COND", "STOP_ON_COND"}
        assert spec.rules["FUSION-WORKFLOW"].policy_priorities["STOP_ON_COND"] == 0

    def test_gray_scott_xml(self):
        from repro.experiments import GRAY_SCOTT_XML
        spec = parse_dyflow_xml(GRAY_SCOTT_XML)
        assert spec.policies["INC_ON_PACE"].threshold == 36.0
        assert len(spec.applications) == 8  # INC+DEC for 4 analyses

    def test_lammps_xml(self):
        from repro.experiments import LAMMPS_XML
        spec = parse_dyflow_xml(LAMMPS_XML)
        assert spec.policies["RESTART_ON_FAILURE"].threshold == 128.0
        assert spec.sensors["STATUS"].source_type == "ERRORSTATUS"


class TestStrictMode:
    """``strict=True`` rejects rule task references that name nothing the
    document monitors, acts on, assesses, or declares as a dependency —
    the latent defect the default (lenient) mode silently accepts."""

    UNMONITORED_RULE = """
    <dyflow>
      <monitor>
        <sensors>
          <sensor id="S" type="ADIOS2">
            <group-by><group granularity="task" reduction-operation="MAX"/></group-by>
          </sensor>
        </sensors>
        <monitor-tasks>
          <monitor-task name="Sim" workflowId="W">
            <use-sensor sensor-id="S" info="x"/>
          </monitor-task>
        </monitor-tasks>
      </monitor>
      <arbitration><rules><rule-for workflowId="W">
        <task-priority name="Ghost" priority="3"/>
      </rule-for></rules></arbitration>
    </dyflow>"""

    def test_default_mode_accepts_unmonitored_rule_task(self):
        spec = parse_dyflow_xml(self.UNMONITORED_RULE)
        assert spec.rules["W"].task_priorities == {"Ghost": 3}

    def test_strict_mode_rejects_unmonitored_rule_task(self):
        with pytest.raises(XmlSpecError, match="Ghost"):
            parse_dyflow_xml(self.UNMONITORED_RULE, strict=True)

    def test_strict_mode_accepts_monitored_rule_task(self):
        xml = self.UNMONITORED_RULE.replace('name="Ghost"', 'name="Sim"')
        spec = parse_dyflow_xml(xml, strict=True)
        assert spec.rules["W"].task_priorities == {"Sim": 3}

    def test_strict_mode_accepts_dependency_endpoint(self):
        xml = self.UNMONITORED_RULE.replace(
            '<task-priority name="Ghost" priority="3"/>',
            '<task-priority name="Ana" priority="3"/>'
            '<task-dep name="Ana" parent="Sim" type="TIGHT"/>',
        )
        spec = parse_dyflow_xml(xml, strict=True)
        assert spec.rules["W"].task_priorities == {"Ana": 3}

    def test_paper_documents_pass_strict_mode(self):
        from repro.experiments import GRAY_SCOTT_XML, LAMMPS_XML, XGC_XML
        for xml in (XGC_XML, GRAY_SCOTT_XML, LAMMPS_XML):
            parse_dyflow_xml(xml, strict=True)
