"""Why did a task change?  One chain, read from a run's log alone.

Walks the records a run appended to its :class:`~repro.sim.trace.RunLog`
(in memory, or the JSONL file :meth:`~repro.telemetry.tracer.Tracer.flush`
wrote), from the metric update that fired a policy, to that policy's
outcome and its ``Reason``, to the plan it landed in and its ops, to the
task spans the plan stopped and started::

    python -m repro.observability.explain events.jsonl --task Isosurface --at 300
    python -m repro.observability.explain events.jsonl --task Isosurface --at 300 --why-not

``--why-not`` lists the outcomes that did *not* grant anything to the
task up to that time, each with its reason.  The metric history is in
the log only when the runtime records it (``record_history``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Iterable, Mapping

from repro.sim.trace import as_record

Record = Mapping[str, Any]


def _of(records: list[Record], kind: str) -> list[Record]:
    return [r for r in records if r["kind"] == kind]


def plan_ops(plan: Record) -> set[tuple[str, str]]:
    """(op, task) of a ``plan:<id>`` point's ops (``"<op> <task> ..."``)."""
    return {tuple(op.split()[:2]) for op in plan["meta"].get("ops", [])}


def explain(records: Iterable[Any], task: str, at: float) -> dict[str, Any] | None:
    """The chain behind the last plan at or before *at* with an op on *task*.

    Returns ``{"outcome", "update", "plan", "stopped", "started"}``: the
    outcome that landed in that plan (one for *task* first, then a grant);
    the update its trigger names (one for the outcome's target or the
    workflow, when the log holds one); the ``plan:<id>`` point; the task
    span the plan stopped and the one it started (None where it did not).
    None when no such plan holds an outcome.
    """
    recs = [as_record(r) for r in records]
    plans = {p["label"]: p for p in _of(recs, "gantt-point") if p["label"].startswith("plan:")}
    landed = [(o, plans.get(f"plan:{o['plan_id']}")) for o in _of(recs, "outcome")
              if o["time"] <= at]
    landed = [(o, p) for o, p in landed if p is not None and task in {t for _, t in plan_ops(p)}]
    if not landed:
        return None
    last = landed[-1][1]
    outcome, plan = min(
        ((o, p) for o, p in landed if p is last),
        key=lambda pair: (pair[0]["target"] != task, pair[0]["reason"] != "granted"),
    )
    at_trigger = [u for u in _of(recs, "update") if u["time"] == outcome["trigger"]]
    mine = [u for u in at_trigger if u["task"] in (outcome["target"], "")] or at_trigger
    spans = [s for s in _of(recs, "gantt-span") if s["track"] == task and s["category"] == "task"]
    t, ops = outcome["time"], plan_ops(plan)
    stopped = [s for s in spans if s["start"] <= t and (s["end"] is None or s["end"] >= t)
               and ("stop", task) in ops]
    started = [s for s in spans if s["start"] > t and ("start", task) in ops]
    return {
        "outcome": outcome,
        "update": mine[-1] if mine else None,
        "plan": plan,
        "stopped": stopped[-1] if stopped else None,
        "started": started[0] if started else None,
    }


def why_not(records: Iterable[Any], task: str, at: float) -> list[Record]:
    """Every outcome for *task* at or before *at* that granted nothing."""
    return [
        r for r in _of([as_record(r) for r in records], "outcome")
        if r["target"] == task and r["reason"] != "granted" and r["time"] <= at
    ]


def _span(s: Record) -> str:
    end = "running" if s["end"] is None else f"{s['end']:.2f}s"
    nodes = ", ".join(f"{n}×{c}" for n, c in sorted((s.get("nodes") or {}).items()))
    return (f"{s['label']} {s['start']:.2f}s–{end}, {s['meta'].get('nprocs')} procs "
            f"on {nodes or '?'}, notes {s.get('notes') or {}}")


def render(chain: Mapping[str, Any]) -> str:
    o, u, p = chain["outcome"], chain["update"], chain["plan"]
    lines = []
    if u is not None:
        lines.append(f"update   t={u['time']:.2f}s {u['sensor_id']} {u['granularity']} "
                     f"{u['task'] or u['workflow_id']} value={u['value']:g} step={u['step']}")
    lines.append(f"outcome  t={o['time']:.2f}s {o['policy_id']}:{o['action']}:{o['target']} "
                 f"{o['reason']} plan={o['plan_id']}")
    lines.append(f"plan     {p['label']} t={p['time']:.2f}s")
    lines.extend(f"  op     {op}" for op in p["meta"].get("ops", []))
    for key in ("stopped", "started"):
        if chain[key] is not None:
            lines.append(f"{key:<8} {_span(chain[key])}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.explain",
        description="Explain a task's change from a run's JSONL log: update, outcome, "
                    "plan op, task span.",
    )
    parser.add_argument("jsonl", help="path to the run's JSONL log")
    parser.add_argument("--task", required=True, help="the task whose change to explain")
    parser.add_argument("--at", type=float, required=True,
                        help="explain the last plan acting on the task at or before this time")
    parser.add_argument("--why-not", action="store_true",
                        help="list the outcomes that granted the task nothing, with reasons")
    args = parser.parse_args(argv)
    from repro.observability.report import read_jsonl

    records = read_jsonl(args.jsonl)
    if args.why_not:
        for r in why_not(records, args.task, args.at):
            print(f"t={r['time']:.2f}s {r['policy_id']}:{r['action']}:{r['target']} "
                  f"{r['reason']}")
        return 0
    chain = explain(records, args.task, args.at)
    if chain is None:
        sys.stderr.write(f"no plan acted on {args.task!r} at or before {args.at:g}s\n")
        return 1
    print(render(chain))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
