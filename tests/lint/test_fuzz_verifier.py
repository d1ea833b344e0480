"""Property-based fuzzing of the spec verifier.

Two invariants, checked over specs drawn from the round-trip generator
(valid by construction) and over adversarially mutated XML documents:

* the verifier never crashes — every outcome is a (possibly empty)
  diagnostic list, with parse failures mapped to DY100;
* diagnostics are deterministic — two runs over the same input yield
  identical, sorted output, and the XML round trip preserves them.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_xml_text, sort_diagnostics, verify_spec
from repro.lint.diagnostics import CODES
from repro.xmlspec import parse_dyflow_xml, write_dyflow_xml

from tests.xmlspec.test_roundtrip_property import dyflow_specs


def formatted(diags):
    return [d.format() for d in diags]


class TestGeneratedSpecs:
    @settings(max_examples=60)
    @given(dyflow_specs())
    def test_verifier_never_crashes(self, spec):
        diags = verify_spec(spec)
        assert all(d.code in CODES for d in diags)
        assert all(CODES[d.code].engine == "spec" for d in diags)

    @settings(max_examples=60)
    @given(dyflow_specs())
    def test_diagnostics_are_deterministic_and_sorted(self, spec):
        first = verify_spec(spec)
        second = verify_spec(spec)
        assert formatted(first) == formatted(second)
        assert formatted(first) == formatted(sort_diagnostics(first))

    @settings(max_examples=60)
    @given(dyflow_specs())
    def test_round_trip_preserves_diagnostics(self, spec):
        """Writing and re-parsing a spec must not change its findings."""
        before = verify_spec(spec)
        back = parse_dyflow_xml(write_dyflow_xml(spec), validate=False)
        after = verify_spec(back)
        assert formatted(after) == formatted(before)


# Deterministic text surgeries that turn a valid document into a
# plausibly broken one.  Each must leave *some* parseable-or-not text —
# the invariant under test is "no crash", not "still valid".
MUTATIONS = (
    lambda xml: xml.replace('sensor-id="', 'sensor-id="GHOST_', 1),
    lambda xml: xml.replace('policyId="', 'policyId="GHOST_', 1),
    lambda xml: xml.replace('workflowId="', 'workflowId="GHOST_', 1),
    lambda xml: xml.replace("threshold=\"", 'threshold="nonsense', 1),
    lambda xml: xml.replace("</dyflow>", ""),
    lambda xml: xml.replace("<decision>", "", 1),
    lambda xml: xml[: len(xml) // 2],
    lambda xml: xml.replace("<sensors>", "<sensors><sensor/>", 1),
)


class TestMutatedDocuments:
    @settings(max_examples=60)
    @given(dyflow_specs(), st.sampled_from(range(len(MUTATIONS))), st.data())
    def test_lint_survives_mutation(self, spec, which, data):
        xml = MUTATIONS[which](write_dyflow_xml(spec))
        if data.draw(st.booleans()):
            xml = MUTATIONS[data.draw(st.sampled_from(range(len(MUTATIONS))))](xml)
        first = lint_xml_text(xml, filename="fuzz.xml")
        second = lint_xml_text(xml, filename="fuzz.xml")
        assert formatted(first) == formatted(second)
        assert all(d.code in CODES for d in first)

    @settings(max_examples=30)
    @given(st.text(max_size=200))
    def test_lint_survives_garbage(self, text):
        diags = lint_xml_text(text, filename="garbage.xml")
        assert diags, "non-XML input must produce at least DY100"
        assert diags[0].code == "DY100"
