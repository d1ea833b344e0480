"""``python -m perfbench.compare A.json B.json``: is B worse than A?

A and B are documents written by ``python -m perfbench --out``.  Prints
one row per (end-to-end metric, workload):

``within``      B's median is no worse than A's by more than the bound;
``worse``       it is, and the run-to-run spread is inside the bound;
``unresolved``  the spread (interquartile range / median of either side's
                samples) is wider than the bound, so the runs cannot tell --
                unless every B sample beats every A sample.

plus one ``equal``/``differs`` row per deterministic count, simulated
value and fingerprint, which must repeat exactly for a fixed seed.
Exit status is 1 when any row is ``worse`` or a correctness check failed.
"""

from __future__ import annotations

import json
import statistics
import sys

from perfbench import metrics as M


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def judge(metric: M.Metric, a: dict, b: dict) -> tuple[str, float, float]:
    """Verdict, B's worsening and the spread, both as shares of A's median."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / abs(a["value"])
    noise = max(spread(a["samples"]), spread(b["samples"]))
    if noise > metric.bound:
        if metric.better == "lower":
            b_wins = max(b["samples"]) < min(a["samples"])
        else:
            b_wins = min(b["samples"]) > max(a["samples"])
        return ("within" if b_wins else "unresolved"), worsening, noise
    return ("worse" if worsening > metric.bound else "within"), worsening, noise


def compare(doc_a: dict, doc_b: dict) -> tuple[list[str], dict[str, int]]:
    rows: list[str] = []
    tally = {"within": 0, "worse": 0, "unresolved": 0, "equal": 0, "differs": 0}

    def row(verdict: str, workload: str, name: str, detail: str) -> None:
        tally[verdict] += 1
        rows.append(f"{verdict:<10} {workload:<15} {name:<36} {detail}")

    for workload in M.WORKLOADS:
        run_a = doc_a["runs"].get(workload, {})
        run_b = doc_b["runs"].get(workload, {})
        e2e_a, e2e_b = run_a.get("e2e"), run_b.get("e2e")
        if e2e_a and e2e_b:
            for metric in M.END_TO_END:
                a, b = e2e_a["metrics"][metric.name], e2e_b["metrics"][metric.name]
                verdict, worsening, noise = judge(metric, a, b)
                row(verdict, workload, metric.name,
                    f"A {a['value']:.6g}  B {b['value']:.6g} {metric.unit}  "
                    f"{worsening:+.1%} (bound {metric.bound:.0%}, spread {noise:.1%})")
        for key in ("e2e", "layers"):
            a, b = run_a.get(key), run_b.get(key)
            if not (a and b):
                continue
            failed = a["failed"] + b["failed"]
            row("worse" if failed else "within", workload, f"failed_frac[{key}]",
                f"A {a['failed']}/{a['attempted']}  B {b['failed']}/{b['attempted']}")
            if a["seed"] == b["seed"]:
                same = a["fingerprints"] == b["fingerprints"]
                row("equal" if same else "differs", workload, f"fingerprints[{key}]", "")
        lay_a, lay_b = run_a.get("layers"), run_b.get("layers")
        if lay_a and lay_b and lay_a["seed"] == lay_b["seed"]:
            for metric in M.PER_LAYER:
                if metric.kind != "exact":
                    continue
                a = lay_a["metrics"][metric.name]["value"]
                b = lay_b["metrics"][metric.name]["value"]
                row("equal" if a == b else "differs", workload, metric.name,
                    f"A {a:.12g}  B {b:.12g} {metric.unit}")
    return rows, tally


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows, tally = compare(*docs)
    print("\n".join(rows))
    print("summary: " + "  ".join(f"{k}={v}" for k, v in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
