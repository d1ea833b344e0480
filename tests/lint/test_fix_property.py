"""Property-based guarantees of the auto-fix engine.

Hypothesis composes spec documents from the corpus building blocks —
dangling references, dead constructs, subsumed policies, out-of-range
parameters, in every combination — and checks the engine's contract on
each: fixing is **idempotent** (a fixed document re-fixes to itself,
byte for byte), **parse-preserving** (the output of a successful fix
always re-parses), **convergent** (no fixable finding survives in the
output), and **conservative** (a document with nothing fixable comes
back as the same string object)."""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import FIXABLE_CODES, fix_xml_text, lint_xml_text
from repro.xmlspec.parser import parse_dyflow_xml

from tests.lint.test_speclint_corpus import (
    CLEAN,
    apply_policy,
    doc,
    mt,
    policy,
    sensor,
)

SPEC_DIR = Path(__file__).parent.parent.parent / "examples" / "specs"

ACTIONS = ("STOP", "RESTART", "ADDCPU", "RMCPU", "RECONFIG")
SENSOR_IDS = ("S", "S2", "GHOST")
TASKS = ("A", "B")


@st.composite
def spec_documents(draw) -> str:
    """A well-formed <dyflow> document with arbitrary cross-reference
    health: any mix of dead sensors, orphan or subsumed policies, unfed
    applications, and out-of-range parameters."""
    sensor_ids = draw(
        st.lists(st.sampled_from(SENSOR_IDS), unique=True, min_size=1, max_size=3)
    )
    sensors = "".join(sensor(sid) for sid in sensor_ids)

    fed_tasks = draw(
        st.lists(st.sampled_from(TASKS), unique=True, min_size=0, max_size=2)
    )
    mts = "".join(
        mt(task=t, sid=draw(st.sampled_from(SENSOR_IDS))) for t in fed_tasks
    )

    n_policies = draw(st.integers(min_value=0, max_value=3))
    policies, applies = [], []
    for i in range(n_policies):
        pid = f"P{i}"
        policies.append(policy(
            pid=pid,
            op=draw(st.sampled_from(("GT", "LT"))),
            thr=str(draw(st.integers(min_value=0, max_value=20))),
            action=draw(st.sampled_from(ACTIONS)),
            sid=draw(st.sampled_from(SENSOR_IDS)),
        ))
        if draw(st.booleans()):
            applies.append(apply_policy(
                pid=pid,
                assess=draw(st.sampled_from(TASKS)),
                act=draw(st.sampled_from(TASKS)),
            ))

    extra = ""
    if draw(st.booleans()):
        base = draw(st.sampled_from(("1.0", "2.0", "4.0")))
        cap = draw(st.sampled_from(("0.5", "1.0", "60.0")))
        extra += (
            f'<resilience><retry backoff-base="{base}" '
            f'backoff-max="{cap}"/></resilience>'
        )

    return doc(
        sensors=sensors, mts=mts,
        policies="".join(policies), applies="".join(applies),
        extra=extra,
    )


def fixable_codes_in(text: str) -> set[str]:
    return {d.code for d in lint_xml_text(text) if d.code in FIXABLE_CODES}


@settings(max_examples=60)
@given(spec_documents())
def test_fix_is_idempotent(xml):
    once = fix_xml_text(xml)
    twice = fix_xml_text(once.text)
    assert twice.text == once.text
    assert not twice.changed


@settings(max_examples=60)
@given(spec_documents())
def test_fix_preserves_parseability(xml):
    result = fix_xml_text(xml)
    parse_dyflow_xml(result.text, validate=False)  # must not raise


@settings(max_examples=60)
@given(spec_documents())
def test_fix_reaches_the_fixed_point(xml):
    result = fix_xml_text(xml)
    assert not fixable_codes_in(result.text)
    # Only fixable codes are ever claimed fixed (cascade rounds may fix
    # codes the initial lint could not yet see).
    assert {d.code for d in result.fixed} <= FIXABLE_CODES
    if result.changed:
        assert fixable_codes_in(xml), "a clean document was rewritten"


@settings(max_examples=60)
@given(spec_documents())
def test_clean_documents_come_back_byte_identical(xml):
    if fixable_codes_in(xml):
        return
    result = fix_xml_text(xml)
    assert result.text is xml


@settings(max_examples=30)
@given(st.sampled_from(sorted(SPEC_DIR.glob("*.xml"), key=lambda p: p.name)))
def test_example_specs_fix_to_the_fixed_point(path):
    text = path.read_text(encoding="utf-8")
    result = fix_xml_text(text)
    assert not fixable_codes_in(result.text)
    refix = fix_xml_text(result.text)
    assert refix.text == result.text


def test_clean_corpus_document_is_byte_identical():
    assert fix_xml_text(CLEAN).text is CLEAN
