#!/usr/bin/env python
"""Kill the orchestrator mid-campaign, resume it from the journal.

The Gray-Scott experiment runs with a write-ahead journal enabled; at
t=300 s and t=700 s the controller process "dies" (everything it holds
in memory is gone — the launcher, the running tasks and the tracer
survive, as they would on a real machine).  Each time, a replacement
orchestrator is bootstrapped from the same XML spec and resumed from the
journal.  A reference run that ignores the crash requests produces a
bit-identical :func:`~repro.api.scenario_fingerprint`: recovery is
*exactly-once* and *deterministic*, not merely "eventually consistent".

Run:  python examples/crash_resume.py [journal-dir] [events-jsonl]

With an *events-jsonl* path the crashed run records telemetry and
writes its JSONL event log there (replacing any earlier run's), ready
for the report CLI::

    python -m repro.observability.report events.jsonl --require-critical-path
"""

import shutil
import sys
import tempfile

from repro.api import (
    JournalSpec,
    TelemetrySpec,
    read_journal,
    run_gray_scott_experiment,
    scenario_fingerprint,
)

CRASH_TIMES = (300.0, 700.0)


def main(journal_dir: str | None = None, events_path: str | None = None) -> None:
    own_dir = journal_dir is None
    if own_dir:
        journal_dir = tempfile.mkdtemp(prefix="dyflow-journal-")
    spec = JournalSpec(dir=journal_dir, fsync="batch", batch_every=64, snapshot_every=20)

    print("reference run (no crashes)...")
    ref = run_gray_scott_experiment(
        crash_times=CRASH_TIMES, ignore_crash_requests=True
    )
    print(f"  makespan {ref.makespan:.2f}s, fingerprint {scenario_fingerprint(ref)[:16]}...")

    print(f"crash run (controller dies at {CRASH_TIMES[0]:.0f}s and "
          f"{CRASH_TIMES[1]:.0f}s, journal in {journal_dir})...")
    telemetry = (
        TelemetrySpec(enabled=True, jsonl_path=events_path)
        if events_path is not None else None
    )
    res = run_gray_scott_experiment(
        journal=spec, crash_times=CRASH_TIMES, telemetry=telemetry
    )
    print(f"  makespan {res.makespan:.2f}s, fingerprint {scenario_fingerprint(res)[:16]}...")
    print(f"  controller crashes survived: {len(res.meta['crashes'])} "
          f"at {[round(t, 1) for t in res.meta['crashes']]}")

    state = read_journal(spec.dir)
    kinds = {}
    for rec in state.records:
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
    print(f"  journal: epoch {state.epoch}, "
          f"{sum(kinds.values())} live records after the last snapshot")

    identical = scenario_fingerprint(res) == scenario_fingerprint(ref)
    print()
    if identical and res.makespan == ref.makespan:
        print("RESUME OK: crashed run is bit-identical to the reference")
    else:
        print("RESUME MISMATCH: crashed run diverged from the reference")
        raise SystemExit(1)
    if events_path is not None:
        print(f"event log written to {events_path}")
    if own_dir:
        shutil.rmtree(journal_dir, ignore_errors=True)


if __name__ == "__main__":
    main(
        sys.argv[1] if len(sys.argv) > 1 else None,
        sys.argv[2] if len(sys.argv) > 2 else None,
    )
