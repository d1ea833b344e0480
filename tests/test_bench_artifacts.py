"""The committed ``benchmarks/BENCH_*.json`` artifacts keep the one schema
``benchmarks/conftest.py::write_bench`` writes: ``{name, config, metrics}``,
named after their file."""

import json
import pathlib

import pytest

ARTIFACTS = sorted((pathlib.Path(__file__).parents[1] / "benchmarks").glob("BENCH_*.json"))


def test_the_canonical_artifacts_are_committed():
    assert {p.name for p in ARTIFACTS} >= {"BENCH_core_throughput.json", "BENCH_fabric_faults.json"}


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_artifact_has_the_write_bench_schema(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"name", "config", "metrics"}
    assert f"BENCH_{doc['name']}" == path.stem
    assert isinstance(doc["config"], dict) and isinstance(doc["metrics"], dict)
