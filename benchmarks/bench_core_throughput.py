"""Core-kernel throughput: events/ticks/envelopes per wall-second.

Drives the synthetic N-task scenario (``repro.experiments.synthetic``)
at 1k/5k/10k/30k tasks and reports how fast the discrete-event core and the
four-stage control loop chew through it.  The artifact
(``BENCH_core_throughput.json``) is the budget every future PR is held
to: the ``core-throughput-smoke`` CI job re-runs the smoke size and
fails when ticks/sec regresses more than 10% against the committed
numbers or its counted work differs from them.

CLI usage (what CI runs)::

    PYTHONPATH=src python benchmarks/bench_core_throughput.py --smoke \
        --check benchmarks/BENCH_core_throughput.json

``--smoke`` runs only the 1k-task size; ``--check`` compares
calibration-normalized ticks/sec against a committed artifact (each
run divides by its own bare-engine event rate, so machine speed
cancels out) and requires the counted work — ``events_executed`` and
``ticks`` — to equal the artifact's exactly.  Without ``--check`` the
run just writes the artifact (``$BENCH_OUTPUT_DIR``, default
``benchmarks/`` — the canonical artifact location).

Reading the JSON: one row per scenario size under ``metrics.sizes``;
``ticks_per_sec`` is the headline number (control-loop iterations per
wall-second, launch included), ``events_per_sec`` the raw engine rate,
``envelopes_per_sec`` the monitor-fabric delivery rate.
``metrics.calibration_events_per_sec`` is the machine-speed yardstick
used by ``--check``.  Raw counters ride along so rates can be
recomputed.  See docs/performance.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.synthetic import run_synthetic_experiment
from repro.sim import SimEngine

SMOKE_SIZES = (1000,)
FULL_SIZES = (1000, 5000, 10000, 30000)
REGRESSION_BUDGET = 0.10  # fail --check beyond 10% normalized ticks/sec loss
CALIBRATION_EVENTS = 200_000


def calibrate(repeats: int = 3) -> float:
    """Events/sec of a bare engine loop — the machine-speed yardstick.

    Absolute ticks/sec cannot be compared across machines (or even
    across runs on a loaded CI box), so :func:`check_regression`
    normalizes by this rate: the same event-heap code path the scenario
    exercises, with no model or fabric work, measured in-process right
    before the suite.  Best of *repeats* to shed scheduler noise.
    """
    best = float("inf")
    for _ in range(repeats):
        engine = SimEngine()
        for i in range(CALIBRATION_EVENTS):
            engine.call_at((i % 64) * 0.5, lambda: None)
        t0 = time.perf_counter()
        engine.run()
        best = min(best, time.perf_counter() - t0)
    return round(CALIBRATION_EVENTS / best, 1)


def measure(num_tasks: int, repeats: int = 1) -> dict:
    """Run the synthetic scenario; return rates from the best repeat."""
    best = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        res = run_synthetic_experiment(num_tasks)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, res)
    wall, res = best
    m = res.meta
    return {
        "num_tasks": num_tasks,
        "wall_seconds": round(wall, 3),
        "makespan": res.makespan,
        "events_executed": m["events_executed"],
        "ticks": m["ticks"],
        "envelopes": m["envelopes"],
        "updates_seen": m["updates_seen"],
        "events_per_sec": round(m["events_executed"] / wall, 1),
        "ticks_per_sec": round(m["ticks"] / wall, 2),
        "envelopes_per_sec": round(m["envelopes"] / wall, 1),
        "updates_per_sec": round(m["updates_seen"] / wall, 1),
    }


def run_suite(sizes=FULL_SIZES, repeats: int = 1) -> dict:
    return {
        "calibration_events_per_sec": calibrate(),
        "sizes": {str(n): measure(n, repeats=repeats) for n in sizes},
    }


def check_regression(metrics: dict, committed_path: str) -> list[str]:
    """Compare a run against a committed artifact, in two halves.

    The exact half: ``events_executed`` and ``ticks`` count the work the
    seeded scenario does, so any difference from the artifact is a change
    in that work, whatever the host.  The seconds half: each run's
    ticks/sec is divided by its own :func:`calibrate` rate, cancelling
    machine speed and load out of the comparison; what is left is the
    scenario's per-event overhead relative to a bare engine loop, and a
    loss beyond ``REGRESSION_BUDGET`` fails.  Only sizes present in both
    runs are compared (the smoke job measures 1k against the committed
    full suite).  Returns failure messages.
    """
    with open(committed_path, encoding="utf-8") as fh:
        committed = json.load(fh)
    failures: list[str] = []
    base_metrics = committed["metrics"]
    base_sizes = base_metrics["sizes"]
    base_calib = base_metrics.get("calibration_events_per_sec")
    calib = metrics.get("calibration_events_per_sec")
    for size, row in metrics["sizes"].items():
        base = base_sizes.get(size)
        if base is None:
            continue
        for count in ("events_executed", "ticks"):
            if row[count] != base[count]:
                failures.append(
                    f"{size} tasks: {count} {row[count]} != committed {base[count]}"
                )
        if base_calib and calib:
            ours = row["ticks_per_sec"] / calib
            theirs = base["ticks_per_sec"] / base_calib
            unit = "normalized ticks/sec"
        else:  # pre-calibration artifact: fall back to absolute rates
            ours, theirs = row["ticks_per_sec"], base["ticks_per_sec"]
            unit = "ticks/sec"
        floor = theirs * (1.0 - REGRESSION_BUDGET)
        if ours < floor:
            failures.append(
                f"{size} tasks: {ours:.4g} {unit} < "
                f"{floor:.4g} (committed {theirs:.4g} - 10%)"
            )
    return failures


def _write(metrics: dict, repeats: int) -> None:
    from benchmarks.conftest import write_bench

    write_bench(
        "core_throughput",
        {"sizes": sorted(int(s) for s in metrics["sizes"]), "repeats": repeats, "seed": 0},
        metrics,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="run only the 1k-task size")
    ap.add_argument("--sizes", type=int, nargs="*", help="explicit task counts")
    ap.add_argument("--repeats", type=int, default=1, help="repeats per size (best wins)")
    ap.add_argument("--check", metavar="JSON", help="fail if ticks/sec regresses >10%% vs this artifact")
    ap.add_argument("--no-write", action="store_true", help="skip writing the artifact")
    args = ap.parse_args(argv)
    sizes = tuple(args.sizes) if args.sizes else (SMOKE_SIZES if args.smoke else FULL_SIZES)
    metrics = run_suite(sizes, repeats=args.repeats)
    for size, row in metrics["sizes"].items():
        print(
            f"{size:>6} tasks: {row['ticks_per_sec']:>8} ticks/s "
            f"{row['events_per_sec']:>10} events/s {row['envelopes_per_sec']:>8} envelopes/s "
            f"({row['wall_seconds']}s wall)"
        )
    if not args.no_write:
        _write(metrics, args.repeats)
    if args.check:
        failures = check_regression(metrics, args.check)
        if failures:
            for f in failures:
                print("REGRESSION:", f, file=sys.stderr)
            return 1
        print("throughput within budget of", args.check)
    return 0


# -- pytest entry point (rides the regular bench suite) -------------------------
def test_core_throughput_smoke(benchmark):
    metrics = benchmark.pedantic(lambda: run_suite(SMOKE_SIZES), rounds=1, iterations=1)
    row = metrics["sizes"]["1000"]
    assert row["ticks"] > 0 and row["envelopes"] > 0
    assert row["updates_seen"] >= 1000
    benchmark.extra_info["bench"] = metrics
    _write(metrics, repeats=1)


if __name__ == "__main__":
    sys.path.insert(0, ".")
    raise SystemExit(main())
