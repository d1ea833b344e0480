"""One conformance suite for every element described by field metadata.

The 19 configuration elements are enumerated from ``DyflowSpec``'s own
declarations; each is driven through the public parse/write/verify
surface at its real place in a document.  A new element or attribute is
covered the moment it is declared.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    JournalError,
    ObservabilityError,
    ReproError,
    ResilienceError,
    XmlSpecError,
)
from repro.lint import verify_spec
from repro.util.xmlfield import xml_fields
from repro.xmlspec import DyflowSpec, parse_dyflow_xml, write_dyflow_xml

from tests.xmlspec.strategies import required_attrs, strategy_for

# What a range violation below each section raises, and lints as.
SECTION_CONTRACT = {
    "resilience": (ResilienceError, "DY407"),
    "journal": (JournalError, "DY403"),
    "observability": (ObservabilityError, "DY404"),
    "tenants": (ReproError, "DY407"),
}


def _paths(cls=DyflowSpec, prefix=()):
    """Every element as the chain of declarations leading to it."""
    for x in xml_fields(cls):
        if x.element is not None:
            yield prefix + (x,)
            yield from _paths(x.cls, prefix + (x,))


PATHS = list(_paths())
IDS = ["/".join(x.name for x in path) for path in PATHS]


def embed(path, obj) -> DyflowSpec:
    """A spec holding *obj* at *path*, every ancestor at its defaults."""
    parents = [DyflowSpec] + [x.cls for x in path[:-1]]
    for x, parent in zip(reversed(path), reversed(parents)):
        obj = parent(**{x.attr: (obj,) if x.many else obj})
    return obj


def extract(path, spec):
    for x in path:
        spec = getattr(spec, x.attr)
        spec = spec[0] if x.many else spec
    return spec


def document(path, attrs=None, child=None) -> str:
    """XML nesting the last element of *path*, required attributes supplied."""
    root = ET.Element("dyflow")
    el = root
    for x in path:
        el = ET.SubElement(el, x.name)
    el.attrib.update({**required_attrs(path[-1].cls), **(attrs or {})})
    if child is not None:
        ET.SubElement(el, child)
    return ET.tostring(root, encoding="unicode")


def _outside(x):
    """Values just outside each bound *x* declares."""
    step = 1 if x.type is int else 1e-6
    if x.ge is not None:
        yield x.ge - step
    if x.gt is not None:
        yield x.type(x.gt)
    if x.le is not None:
        yield x.le + step
    if x.lt is not None:
        yield x.type(x.lt)
    if x.choices is not None:
        yield "bogus"
    if x.nonempty:
        yield ""


BOUNDS = [
    pytest.param(path, x, bad, id=f"{ident}@{x.name}={bad!r}")
    for path, ident in zip(PATHS, IDS)
    for x in xml_fields(path[-1].cls)
    if x.element is None
    for bad in _outside(x)
]


def test_every_configuration_element_is_enumerated():
    assert len(PATHS) == 19
    assert len(BOUNDS) == 100


@pytest.mark.parametrize("path", PATHS, ids=IDS)
class TestElement:
    def test_empty_element_parses_to_the_defaults(self, path):
        cls = path[-1].cls
        supplied = required_attrs(cls)
        required = {
            x.attr: x.type(supplied[x.name]) for x in xml_fields(cls) if x.name in supplied
        }
        got = extract(path, parse_dyflow_xml(document(path), validate=False))
        assert got == cls(**required)

    @settings(max_examples=20)
    @given(data=st.data())
    def test_every_field_survives_write_then_parse(self, path, data):
        obj = data.draw(strategy_for(path[-1].cls))
        spec = embed(path, obj)
        back = parse_dyflow_xml(write_dyflow_xml(spec))
        assert extract(path, back) == obj
        assert back == spec

    def test_unknown_attribute_is_rejected(self, path):
        with pytest.raises(XmlSpecError, match="bogus-attr"):
            parse_dyflow_xml(document(path, {"bogus-attr": "1"}), validate=False)

    def test_unknown_child_is_rejected(self, path):
        with pytest.raises(XmlSpecError, match="bogus-child"):
            parse_dyflow_xml(document(path, child="bogus-child"), validate=False)


@pytest.mark.parametrize("path,x,bad", BOUNDS)
def test_declared_bound_rejects_the_value_just_outside(path, x, bad):
    error, code = SECTION_CONTRACT[path[0].name]
    text = document(path, {x.name: str(bad)})
    with pytest.raises(error, match=x.name):
        parse_dyflow_xml(text)
    spec = parse_dyflow_xml(text, validate=False)
    with pytest.raises(error):
        extract(path, spec).validate()
    hits = [d for d in verify_spec(spec) if d.code == code]
    assert hits and x.name in hits[0].message
