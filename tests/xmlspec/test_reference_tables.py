"""docs/xml-reference.md carries attribute tables generated from the
field declarations; this keeps the committed copy in step with them."""

import pathlib

import pytest

from repro.util.xmlfield import reference_tables
from repro.xmlspec import DyflowSpec

DOC = pathlib.Path(__file__).parents[2] / "docs" / "xml-reference.md"
TABLES = reference_tables(DyflowSpec)


@pytest.mark.parametrize("tag", TABLES)
def test_committed_table_matches_the_declarations(tag):
    block = (
        f"<!-- BEGIN generated: {tag} -->\n{TABLES[tag]}\n<!-- END generated: {tag} -->"
    )
    assert block in DOC.read_text(), (
        f"docs/xml-reference.md is stale for <{tag}>; replace its block with:\n\n{block}\n"
    )
