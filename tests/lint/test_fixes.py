"""The auto-fix engine: safe repairs, the fixed-point guarantee, and the
byte-identity guarantee for clean documents."""

from __future__ import annotations

from pathlib import Path

from repro.lint import FIXABLE_CODES, fix_spec, fix_xml_text, lint_xml_text
from repro.xmlspec.parser import parse_dyflow_xml

from tests.lint.test_speclint_corpus import (
    CLEAN,
    apply_policy,
    doc,
    mt,
    policy,
    sensor,
)

DEMO_SPEC = (
    Path(__file__).parent.parent.parent
    / "examples" / "specs" / "dirty_lint_demo.xml"
)


def fixable_findings(xml: str) -> set[str]:
    return {d.code for d in lint_xml_text(xml) if d.code in FIXABLE_CODES}


# --------------------------------------------------------------------------- #
# individual repairs
# --------------------------------------------------------------------------- #
class TestDeadConstructElimination:
    def test_dy108_removes_the_unused_sensor(self):
        xml = doc(sensors=sensor() + sensor("UNUSED"), mts=mt(),
                  policies=policy(), applies=apply_policy())
        result = fix_xml_text(xml)
        assert {d.code for d in result.fixed} == {"DY108"}
        spec = parse_dyflow_xml(result.text)
        assert set(spec.sensors) == {"S"}

    def test_dy109_removes_the_orphan_policy(self):
        xml = doc(sensors=sensor(), mts=mt(),
                  policies=policy() + policy(pid="ORPHAN", action="RECONFIG"),
                  applies=apply_policy())
        result = fix_xml_text(xml)
        assert {d.code for d in result.fixed} == {"DY109"}
        assert "ORPHAN" not in parse_dyflow_xml(result.text).policies

    def test_dy112_cascades_to_policy_and_sensor(self):
        # The unfed application is removed, stranding its policy, which
        # strands nothing else here but exercises the cascade rounds.
        xml = doc(sensors=sensor(), mts=mt(),
                  policies=policy() + policy(pid="COLD"),
                  applies=apply_policy()
                  + apply_policy(pid="COLD", assess="Missing"))
        result = fix_xml_text(xml)
        codes = {d.code for d in result.fixed}
        assert {"DY112", "DY109"} <= codes
        spec = parse_dyflow_xml(result.text)
        assert "COLD" not in spec.policies
        assert all(a.policy_id != "COLD" for a in spec.applications)
        assert result.rounds >= 2


class TestThresholdSubsumption:
    def covered(self) -> str:
        return doc(
            sensors=sensor(), mts=mt(),
            policies=policy(pid="P", op="GT", thr="5")
            + policy(pid="Q", op="GT", thr="10"),
            applies=apply_policy(pid="P") + apply_policy(pid="Q"),
        )

    def test_fully_covered_inner_policy_is_removed(self):
        result = fix_xml_text(self.covered())
        assert "DY301" in {d.code for d in result.fixed}
        assert "Q" not in parse_dyflow_xml(result.text).policies

    def test_partial_coverage_is_reported_not_fixed(self):
        # The inner policy acts on an extra task the outer does not
        # cover, so removal would drop a real effect.
        xml = doc(
            sensors=sensor(), mts=mt() + mt(task="B"),
            policies=policy(pid="P", op="GT", thr="5")
            + policy(pid="Q", op="GT", thr="10"),
            applies=apply_policy(pid="P") + apply_policy(pid="Q", act="A B"),
        )
        result = fix_xml_text(xml)
        assert "DY301" not in {d.code for d in result.fixed}
        assert "DY301" in {d.code for d in result.remaining}
        assert "Q" in parse_dyflow_xml(result.text).policies

    def test_different_params_block_the_removal(self):
        params = ('<action-params><param key="adjust-by" value="9"/>'
                  "</action-params>")
        xml = doc(
            sensors=sensor(), mts=mt(),
            policies=policy(pid="P", op="GT", thr="5", action="ADDCPU")
            + policy(pid="Q", op="GT", thr="10", action="ADDCPU"),
            applies=apply_policy(pid="P") + apply_policy(pid="Q", params=params),
        )
        result = fix_xml_text(xml)
        assert "DY301" not in {d.code for d in result.fixed}
        assert "Q" in parse_dyflow_xml(result.text).policies


class TestParamClamps:
    def test_dy401_raises_the_cap_to_the_base(self):
        xml = CLEAN.replace(
            "</dyflow>",
            '<resilience><retry backoff-base="4.0" backoff-max="1.0"/>'
            "</resilience></dyflow>",
        )
        result = fix_xml_text(xml)
        assert {d.code for d in result.fixed} == {"DY401"}
        retry = parse_dyflow_xml(result.text).resilience.retry
        assert retry.backoff_max == retry.backoff_base == 4.0


# --------------------------------------------------------------------------- #
# the guarantees
# --------------------------------------------------------------------------- #
class TestGuarantees:
    def test_clean_document_is_the_same_object(self):
        result = fix_xml_text(CLEAN)
        assert result.text is CLEAN
        assert not result.changed
        assert result.fixed == ()

    def test_fixed_document_relints_clean_of_fixed_codes(self):
        dirty = DEMO_SPEC.read_text(encoding="utf-8")
        result = fix_xml_text(dirty)
        fixed_codes = {d.code for d in result.fixed}
        assert fixed_codes == {"DY108", "DY109", "DY112", "DY301", "DY401"}
        assert not fixable_findings(result.text)

    def test_fix_is_idempotent(self):
        dirty = DEMO_SPEC.read_text(encoding="utf-8")
        once = fix_xml_text(dirty)
        twice = fix_xml_text(once.text)
        assert twice.text is once.text
        assert not twice.changed

    def test_every_fixed_diag_carries_the_replacement(self):
        dirty = DEMO_SPEC.read_text(encoding="utf-8")
        result = fix_xml_text(dirty)
        for d in result.fixed:
            assert d.fix is not None
            assert d.fix.replacement == result.text
            assert d.fix.span == len(dirty)
            assert d.fix.description

    def test_filename_is_threaded_into_locations(self):
        dirty = DEMO_SPEC.read_text(encoding="utf-8")
        result = fix_xml_text(dirty, filename="demo.xml")
        assert all(d.location.file == "demo.xml" for d in result.fixed)

    def test_unparseable_text_reports_dy100_untouched(self):
        result = fix_xml_text("<dyflow><monitor></dyflow>")
        assert result.text == "<dyflow><monitor></dyflow>"
        assert [d.code for d in result.remaining] == ["DY100"]
        assert result.fixed == ()

    def test_fix_spec_reports_rounds(self):
        spec = parse_dyflow_xml(
            DEMO_SPEC.read_text(encoding="utf-8"), validate=False
        )
        fixed, remaining, rounds = fix_spec(spec)
        assert fixed and rounds >= 2
        assert not {d.code for d in remaining} & FIXABLE_CODES

    def test_unfixable_codes_stay_in_remaining(self):
        xml = doc(sensors=sensor(), mts=mt(),
                  policies=policy(gran="node-task"), applies=apply_policy())
        result = fix_xml_text(xml)
        assert "DY104" in {d.code for d in result.remaining}
        assert result.text is xml
