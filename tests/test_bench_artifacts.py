"""The committed ``benchmarks/BENCH_*.json`` artifacts keep the one schema
``benchmarks/conftest.py::write_bench`` writes: ``{name, config, metrics}``,
named after their file; the throughput gate compares counted work exactly."""

import json
import pathlib

import pytest

from benchmarks.bench_core_throughput import check_regression

BENCHMARKS = pathlib.Path(__file__).parents[1] / "benchmarks"
ARTIFACTS = sorted(BENCHMARKS.glob("BENCH_*.json"))


def test_the_canonical_artifacts_are_committed():
    assert {p.name for p in ARTIFACTS} == {"BENCH_core_throughput.json"}


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_artifact_has_the_write_bench_schema(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"name", "config", "metrics"}
    assert f"BENCH_{doc['name']}" == path.stem
    assert isinstance(doc["config"], dict) and isinstance(doc["metrics"], dict)


@pytest.mark.parametrize("count", ["events_executed", "ticks"])
def test_the_gate_fails_on_any_change_in_counted_work(count):
    """The seconds half of ``check_regression`` cannot resolve 10 % on a
    noisy host; its exact half fails on a count that moved by one."""
    path = BENCHMARKS / "BENCH_core_throughput.json"
    committed = json.loads(path.read_text(encoding="utf-8"))["metrics"]
    row = dict(committed["sizes"]["1000"])
    run = {"calibration_events_per_sec": committed["calibration_events_per_sec"],
           "sizes": {"1000": row}}
    assert check_regression(run, str(path)) == []
    row[count] += 1
    assert check_regression(run, str(path)) == [
        f"1000 tasks: {count} {row[count]} != committed {row[count] - 1}"]
