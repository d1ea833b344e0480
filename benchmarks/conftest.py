"""Reporting helpers for the benchmarks.

The paper's tables, figures and ablations are not here: each claim is a
row of ``repro.experiments.report`` (``python examples/reproduce_all.py``),
and that an absent optional layer does no work is counted in tier-1
(``tests/runtime/test_absent_layers.py``).  What remains are the three
benches CI runs: core throughput against its committed budget, the
fabric fault sweep and the multi-tenant campaign.  Measured rows are
printed (run pytest with ``-s`` to see them), and each bench writes a
machine-readable ``BENCH_<name>.json`` artifact via :func:`write_bench`
with the uniform schema ``{"name", "config", "metrics": {...}}`` so CI
and the comparison scripts can collect every result the same way.

``benchmarks/`` (this directory) is the **one canonical location** for
those artifacts — it is where the committed baselines live and what CI
gates against; ``tests/test_bench_artifacts.py`` checks that each
committed one keeps the schema.  ``write_bench`` defaults there
regardless of the invoking working directory; set ``$BENCH_OUTPUT_DIR``
to redirect (e.g. to a scratch dir in CI).
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


def emit(title: str, lines: list[str]) -> str:
    """Print a report block; returns the joined text."""
    text = "\n".join([f"== {title} ==", *lines])
    print("\n" + text)
    return text
