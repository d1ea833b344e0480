"""``python -m perfbench --selftest``: the benchmark checks itself.

Tiny sizes, under 20 s.  Fails when ``BENCHMARK.json`` and
``metrics.py`` disagree, when a pass emits an undeclared metric or omits
a declared one, when the pinned paper fingerprints drift apart from the
ones in ``tests/experiments/test_fingerprint_regression.py``, or when a
tiny run of any workload fails one of its correctness checks.
"""

from __future__ import annotations

import ast
import json
import os
import re
import time

from perfbench import hostspeed
from perfbench import metrics as M
from perfbench import runner

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TEST_PINS = os.path.join(runner.ROOT, "tests", "experiments", "test_fingerprint_regression.py")


def _declared(rows: list[dict], metrics: tuple[M.Metric, ...], bounded: bool) -> bool:
    want = [
        {"name": m.name, "unit": m.unit, "better": m.better, **({"bound": m.bound} if bounded else {})}
        for m in metrics
    ]
    return rows == want


def _test_suite_pins() -> dict[str, str]:
    """The EXPECTED literal of the tier-1 fingerprint regression test."""
    with open(TEST_PINS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPECTED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no EXPECTED literal in {TEST_PINS}")


def selftest() -> int:
    failures: list[str] = []

    def expect(what: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with open(os.path.join(runner.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    expect("BENCHMARK.json end_to_end equals metrics.END_TO_END",
           _declared(manifest["end_to_end"], M.END_TO_END, bounded=True))
    expect("BENCHMARK.json per_layer equals metrics.PER_LAYER",
           _declared(manifest["per_layer"], M.PER_LAYER, bounded=False))
    expect("BENCHMARK.json workloads equal metrics.WORKLOADS",
           manifest["workloads"] == [{"name": n, "why": w} for n, w in M.WORKLOADS.items()])
    expect("BENCHMARK.json runs python3 -m perfbench from paths [perfbench]",
           manifest["command"] == ["python3", "-m", "perfbench"]
           and manifest["paths"] == ["perfbench"])
    names = list(M.BY_NAME) + list(M.WORKLOADS)
    expect("every name matches [A-Za-z0-9_.-]+ and is used once",
           all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names))
    expect("setup_s is declared end-to-end", "setup_s" in M.END_TO_END_NAMES)

    with open(runner.EXPECTED_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    suite = _test_suite_pins()
    expect("expected.json pins the default seed", pins["seed"] == M.DEFAULT_SEED)
    for scenario in ("xgc", "gray_scott", "lammps"):
        expect(f"paper_plain {scenario}/summit pin equals the tier-1 test's EXPECTED",
               pins["fingerprints"]["paper_plain"].get(f"{scenario}/summit") == suite[scenario])

    for name in M.WORKLOADS:
        for trace, declared in ((0, M.END_TO_END_NAMES), (1, M.PER_LAYER_NAMES)):
            hostspeed.start()  # run_pass expects the set-up region open, as __main__ leaves it
            doc = runner.run_pass(name, M.DEFAULT_SEED, 0.0, trace, True, time.perf_counter())
            tag = f"{name} --trace {trace}"
            expect(f"{tag}: emits exactly the declared metrics",
                   tuple(doc["metrics"]) == declared)
            expect(f"{tag}: every unit is the declared one",
                   all(v["unit"] == M.BY_NAME[k].unit for k, v in doc["metrics"].items()))
            line = json.loads(runner.driver_line(doc))
            expect(f"{tag}: result line round-trips with the four contract keys",
                   sorted(line) == ["attempted", "correct", "failed", "metrics"]
                   and json.loads(json.dumps(line)) == line
                   and all(sorted(v) == ["unit", "value"] for v in line["metrics"].values()))
            expect(f"{tag}: {doc['attempted']} checks, failed {doc['failures']}", doc["correct"])
    print(f"selftest: {'FAILED ' + str(len(failures)) if failures else 'passed'}")
    return 1 if failures else 0
