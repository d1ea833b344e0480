"""Reporting helper for the benchmark.

The paper's tables, figures and ablations are not here, and neither are
the §6 extensions' shape claims (the lossy fabric's drop sweep, the
crash-looping tenant): each is a row of ``repro.experiments.report``
(``python examples/reproduce_all.py``), and their invariants are tier-1
tests.  That an absent optional layer does no work is counted in tier-1
too (``tests/runtime/test_absent_layers.py``).  What remains is the one
bench CI runs: core throughput against its committed budget.  It writes
a machine-readable ``BENCH_<name>.json`` artifact via :func:`write_bench`
with the uniform schema ``{"name", "config", "metrics": {...}}``.

``benchmarks/`` (this directory) is the **one canonical location** for
that artifact — it is where the committed baseline lives and what CI
gates against; ``tests/test_bench_artifacts.py`` checks that it keeps
the schema.  ``write_bench`` defaults there regardless of the invoking
working directory; set ``$BENCH_OUTPUT_DIR`` to redirect (e.g. to a
scratch dir in CI).
"""

from __future__ import annotations

import json
import os
from typing import Any, Mapping


def write_bench(
    name: str, config: Mapping[str, Any], metrics: Mapping[str, Any]
) -> dict[str, Any]:
    """Write the standard ``BENCH_<name>.json`` artifact; returns the payload.

    *config* records the knobs that produced the numbers (machine, seed,
    rounds, ...); *metrics* the measured values.  The same payload is
    printed as a single ``BENCH {...}`` line for log scraping.
    """
    payload = {"name": name, "config": dict(config), "metrics": dict(metrics)}
    out_dir = os.environ.get(
        "BENCH_OUTPUT_DIR", os.path.dirname(os.path.abspath(__file__))
    )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print("BENCH " + json.dumps(payload, sort_keys=True, default=str))
    return payload

