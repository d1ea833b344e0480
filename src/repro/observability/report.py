"""Run reports: one document summarizing what a run did and why.

:func:`report_from_jsonl` builds the report from a run's records — the
runtime passes its run log's (:class:`~repro.sim.trace.RunLog`) at
finalize, the CLI the lines of the JSONL file that log was flushed to,
and both get the same document::

    python -m repro.observability.report run.jsonl -o report.md --json report.json

The report carries the critical path, the bottleneck attribution, the
per-node utilization table, the alert timeline, the top slow spans, and
a curated metrics summary.  Every section is a pure function of
sim-clock data with deterministic ordering and formatting — two
same-seed runs produce **byte-identical** reports (wall-clock metrics
like ``journal.append.latency`` are deliberately excluded).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Iterable, Mapping

from repro.observability.analysis import SpanForest, SpanView
from repro.observability.slo import HealthAlert
from repro.observability.utilization import UtilizationReport, utilization_from_events
from repro.telemetry.metrics import is_deterministic
from repro.telemetry.tracer import TraceSpan

REPORT_SCHEMA = "dyflow-run-report/1"
#: Rows in the report's bottleneck and slow-span tables.
TOP_N = 5


def _deterministic_metrics(snapshot: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Filter a registry snapshot down to sim-deterministic families."""
    out: dict[str, Any] = {}
    for name in sorted(snapshot):
        if is_deterministic(name):
            out[name] = dict(snapshot[name])
    return out


def _utilization_section(util: UtilizationReport | None) -> dict[str, Any] | None:
    if util is None:
        return None
    return {
        "start": util.start,
        "end": util.end,
        "total_cores": util.total_cores,
        "busy_core_seconds": util.busy_core_seconds,
        "aggregate": util.utilization,
        "nodes": [
            {
                "node": n.node_id,
                "cores": n.cores,
                "busy_core_seconds": n.busy_core_seconds,
                "quarantined_seconds": n.quarantined_seconds,
                "utilization": n.utilization,
            }
            for n in util.nodes
        ],
    }


def _alert_row(alert: HealthAlert) -> dict[str, Any]:
    """An alert's fields with its numbers as floats, as its JSONL line
    reads back, so a live alert and its flushed line give one row."""
    row = alert.to_dict()
    for key in ("time", "value", "threshold"):
        row[key] = float(row[key])
    return row


def build_report(
    spans: Iterable[SpanView],
    utilization: UtilizationReport | None = None,
    alerts: Iterable[HealthAlert] = (),
    metrics: Mapping[str, Mapping[str, Any]] | None = None,
    top_n: int = TOP_N,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the report document from analysis inputs."""
    forest = SpanForest(spans)
    path = forest.critical_path()
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "meta": dict(meta or {}),
        "critical_path": {
            "total": path.total,
            "entries": [
                {
                    "name": e.name, "category": e.category, "depth": e.depth,
                    "start": e.start, "end": e.end,
                    "duration": e.duration, "slack": e.slack,
                }
                for e in path.entries
            ],
        },
        "bottlenecks": forest.bottlenecks(top_n),
        "slow_spans": [
            {
                "name": v.name, "category": v.category,
                "start": v.start, "end": v.end, "duration": v.duration,
            }
            for v in forest.slowest_spans(top_n)
        ],
        "utilization": _utilization_section(utilization),
        "alerts": [_alert_row(a) for a in alerts],
        "metrics": _deterministic_metrics(metrics) if metrics is not None else {},
    }
    return report


def report_from_jsonl(
    records: Iterable[Any],
    top_n: int = TOP_N,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the report from a run's log records, in append order.

    A record is a log object or its JSONL line, and both forms give the
    same report.  One pass reads each record in place: a span becomes a
    :class:`SpanView`, an alert stays a :class:`HealthAlert`, and every
    other record goes to the utilization, which reads its time (and a
    task Gantt span's placement).  The utilization horizon is the latest
    record that is not a span, the metrics the last ``metrics`` record.
    """
    views: list[SpanView] = []
    alerts: list[HealthAlert] = []
    events: list[Any] = []
    metrics: Mapping[str, Mapping[str, Any]] = {}
    has_wms = False
    for r in records:
        if type(r) is dict:
            kind = r.get("kind")
            if kind == "span":
                if r.get("end") is not None:
                    views.append(SpanView.from_record(r))
                continue
            if kind == "alert":
                alerts.append(HealthAlert.from_dict(r["alert"]))
            elif kind == "metrics":
                metrics = r["metrics"]
            elif kind == "point" and r.get("name") == "run.allocation":
                has_wms = True
        elif isinstance(r, TraceSpan):
            if r.end is not None:
                views.append(SpanView.from_span(r))
            continue
        elif isinstance(r, HealthAlert):
            alerts.append(r)
        events.append(r)
    util = utilization_from_events(events) if has_wms else None
    return build_report(
        views, utilization=util, alerts=alerts, metrics=metrics,
        top_n=top_n, meta=meta,
    )


def read_jsonl(path: str) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# -- rendering --------------------------------------------------------------------
def _f(x: float) -> str:
    return f"{x:.3f}"


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def render_markdown(report: Mapping[str, Any]) -> str:
    """The report as deterministic markdown."""
    lines: list[str] = ["# DYFLOW run report", ""]
    meta = report.get("meta") or {}
    if meta:
        for key in sorted(meta):
            lines.append(f"- **{key}**: {meta[key]}")
        lines.append("")

    cp = report["critical_path"]
    lines.append("## Critical path")
    lines.append("")
    if cp["entries"]:
        lines.append(f"Total: {_f(cp['total'])} s over {len(cp['entries'])} span(s).")
        lines.append("")
        lines.append("| depth | span | category | start | duration (s) | slack (s) |")
        lines.append("|---|---|---|---|---|---|")
        for e in cp["entries"]:
            lines.append(
                f"| {e['depth']} | {e['name']} | {e['category']} | "
                f"{_f(e['start'])} | {_f(e['duration'])} | {_f(e['slack'])} |"
            )
    else:
        lines.append("No closed spans recorded.")
    lines.append("")

    lines.append("## Bottlenecks (exclusive time)")
    lines.append("")
    if report["bottlenecks"]:
        lines.append("| span | stage | count | exclusive (s) | total (s) | max excl (s) |")
        lines.append("|---|---|---|---|---|---|")
        for b in report["bottlenecks"]:
            lines.append(
                f"| {b['name']} | {b['category']} | {b['count']} | "
                f"{_f(b['exclusive'])} | {_f(b['total'])} | {_f(b['max_exclusive'])} |"
            )
    else:
        lines.append("No spans to attribute.")
    lines.append("")

    util = report.get("utilization")
    lines.append("## Utilization")
    lines.append("")
    if util is not None:
        lines.append(
            f"Aggregate: {_pct(util['aggregate'])} of {util['total_cores']} cores over "
            f"[{_f(util['start'])}, {_f(util['end'])}] s "
            f"({_f(util['busy_core_seconds'])} busy core-seconds)."
        )
        lines.append("")
        lines.append("| node | cores | busy core-s | quarantined (s) | utilization |")
        lines.append("|---|---|---|---|---|")
        for n in util["nodes"]:
            lines.append(
                f"| {n['node']} | {n['cores']} | {_f(n['busy_core_seconds'])} | "
                f"{_f(n['quarantined_seconds'])} | {_pct(n['utilization'])} |"
            )
    else:
        lines.append("No allocation events recorded.")
    lines.append("")

    lines.append("## Alert timeline")
    lines.append("")
    if report["alerts"]:
        lines.append("| time (s) | alert | kind | severity | value | threshold |")
        lines.append("|---|---|---|---|---|---|")
        for a in report["alerts"]:
            lines.append(
                f"| {_f(a['time'])} | {a['source']} | {a['kind']} | {a['severity']} | "
                f"{_f(a['value'])} | {_f(a['threshold'])} |"
            )
    else:
        lines.append("No health alerts.")
    lines.append("")

    lines.append("## Slowest spans")
    lines.append("")
    if report["slow_spans"]:
        lines.append("| span | category | start | end | duration (s) |")
        lines.append("|---|---|---|---|---|")
        for s in report["slow_spans"]:
            lines.append(
                f"| {s['name']} | {s['category']} | {_f(s['start'])} | "
                f"{_f(s['end'])} | {_f(s['duration'])} |"
            )
    else:
        lines.append("No spans recorded.")
    lines.append("")

    metrics = report.get("metrics") or {}
    hists = {
        name: m for name, m in metrics.items()
        if m.get("type") == "histogram" and m.get("count")
    }
    if hists:
        lines.append("## Stage latency summary")
        lines.append("")
        lines.append("| metric | count | p50 (s) | p95 (s) | p99 (s) |")
        lines.append("|---|---|---|---|---|")
        for name in sorted(hists):
            m = hists[name]
            lines.append(
                f"| {name} | {m['count']} | {_f(m['p50'])} | "
                f"{_f(m['p95'])} | {_f(m['p99'])} |"
            )
        lines.append("")
    return "\n".join(lines)


def render_json(report: Mapping[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(
    report: Mapping[str, Any],
    path: str | None = None,
    json_path: str | None = None,
) -> None:
    """Write the markdown and/or JSON renderings."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(report))
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))


# -- CLI --------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.report",
        description="Turn a run's JSONL telemetry log into a run report.",
    )
    parser.add_argument("jsonl", help="path to the run's JSONL event log")
    parser.add_argument("-o", "--output", help="write markdown report here")
    parser.add_argument("--json", dest="json_output", help="write JSON report here")
    parser.add_argument(
        "--format", choices=("md", "json"), default="md",
        help="stdout format when no output file is given",
    )
    parser.add_argument(
        "--require-critical-path", action="store_true",
        help="exit 1 unless the critical path is non-empty (CI smoke)",
    )
    args = parser.parse_args(argv)
    report = report_from_jsonl(read_jsonl(args.jsonl), meta={"source": args.jsonl})
    write_report(report, path=args.output, json_path=args.json_output)
    if args.output is None and args.json_output is None:
        text = render_markdown(report) if args.format == "md" else render_json(report)
        sys.stdout.write(text)
    if args.require_critical_path and not report["critical_path"]["entries"]:
        sys.stderr.write("run report has an empty critical path\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
