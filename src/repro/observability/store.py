"""Queryable run store: signac-style indexing over committed run JSON.

Every benchmark emits ``BENCH_<name>.json`` (``{"name", "config",
"metrics"}``) and every observed run can emit a ``dyflow-run-report/1``
JSON document.  :class:`RunStore` indexes both into content-addressed
records — the id embeds a statepoint hash of the run's config, the
signac convention reused from :mod:`repro.campaign.statepoint` — and
flattens each document's numeric metrics into dotted keys
(``sizes.1000.events_per_sec``, ``plan.response.p95``) so they can be
queried uniformly::

    store = RunStore()
    store.index("benchmarks")
    worse = store.regressions("metrics.sizes.1000.events_per_sec",
                              direction="lower-is-worse")

The CLI wraps the same API::

    python -m repro.observability.store benchmarks --list
    python -m repro.observability.store benchmarks \
        --regressions metrics.sizes.1000.ticks_per_sec --tolerance 10

Indexing is deterministic: files scan in sorted path order and every
listing sorts by record id.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.campaign.statepoint import ID_HASH_LEN, statepoint_hash
from repro.errors import ObservabilityError

REPORT_SCHEMA = "dyflow-run-report/1"

_OPS: dict[str, Callable[[float, float], bool]] = {
    "LT": lambda a, b: a < b,
    "LE": lambda a, b: a <= b,
    "GT": lambda a, b: a > b,
    "GE": lambda a, b: a >= b,
    "EQ": lambda a, b: a == b,
}


def flatten_metrics(doc: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested mapping as dotted keys, sorted."""
    out: dict[str, float] = {}
    for key in sorted(doc, key=str):
        value = doc[key]
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten_metrics(value, prefix=f"{dotted}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[dotted] = float(value)
    return out


@dataclass(frozen=True)
class RunRecord:
    """One indexed run document.

    Attributes:
        record_id: content-addressed id — ``<name>-<hash8>`` where the
            hash covers the run's config statepoint.
        kind: ``"bench"`` or ``"report"``.
        name: benchmark name or report workflow name.
        path: source file.
        config: the statepoint (bench config, or report meta).
        metrics: flattened dotted-key numeric metrics.
    """

    record_id: str
    kind: str
    name: str
    path: str
    config: dict[str, Any] = field(hash=False)
    metrics: dict[str, float] = field(hash=False)

    def metric(self, key: str) -> float | None:
        return self.metrics.get(key)


def _classify(doc: Any) -> str | None:
    if not isinstance(doc, Mapping):
        return None
    if doc.get("schema") == REPORT_SCHEMA:
        return "report"
    if {"name", "config", "metrics"} <= set(doc):
        return "bench"
    return None


def load_record(path: str) -> RunRecord | None:
    """Index one JSON file, or ``None`` if it is not a run document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            return None
    kind = _classify(doc)
    if kind is None:
        return None
    if kind == "bench":
        name = str(doc["name"])
        config = dict(doc["config"])
        metrics = flatten_metrics({"metrics": doc["metrics"]})
    else:
        meta = dict(doc.get("meta") or {})
        name = str(meta.get("workflow") or meta.get("name") or "report")
        config = meta
        metrics = flatten_metrics(
            {"metrics": doc.get("metrics") or {}, "meta": meta}
        )
    record_id = f"{name}-{statepoint_hash(config, name=name, kind=kind)[:ID_HASH_LEN]}"
    return RunRecord(
        record_id=record_id, kind=kind, name=name, path=path,
        config=config, metrics=metrics,
    )


class RunStore:
    """In-memory index of run records with a small query API."""

    def __init__(self) -> None:
        self._by_id: dict[str, RunRecord] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def add(self, record: RunRecord) -> None:
        self._by_id[record.record_id] = record

    def add_file(self, path: str) -> RunRecord | None:
        record = load_record(path)
        if record is not None:
            self.add(record)
        return record

    def index(self, root: str) -> int:
        """Recursively index every ``*.json`` under *root* (or one file).

        Returns how many run documents were indexed; non-run JSON is
        skipped silently.
        """
        if os.path.isfile(root):
            return 1 if self.add_file(root) else 0
        count = 0
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fname in sorted(filenames):
                if fname.endswith(".json"):
                    if self.add_file(os.path.join(dirpath, fname)) is not None:
                        count += 1
        return count

    # -- queries -------------------------------------------------------

    def records(self) -> list[RunRecord]:
        return [self._by_id[rid] for rid in sorted(self._by_id)]

    def get(self, record_id: str) -> RunRecord:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise ObservabilityError(f"no run record {record_id!r}") from None

    def metric_keys(self) -> list[str]:
        keys: set[str] = set()
        for record in self._by_id.values():
            keys.update(record.metrics)
        return sorted(keys)

    def query(self, metric: str, op: str, value: float) -> list[RunRecord]:
        """Records whose *metric* satisfies ``metric <op> value``."""
        cmp = _OPS.get(op)
        if cmp is None:
            raise ObservabilityError(f"query op must be one of {sorted(_OPS)}, got {op!r}")
        return [
            r for r in self.records()
            if r.metric(metric) is not None and cmp(r.metrics[metric], value)
        ]

    def regressions(
        self,
        metric: str,
        baseline: str | None = None,
        tolerance_pct: float = 0.0,
        direction: str = "higher-is-worse",
    ) -> list[dict[str, Any]]:
        """Runs where *metric* regressed versus a baseline.

        *baseline* names a record id; when ``None`` the best-performing
        record (lowest value under ``higher-is-worse``, highest under
        ``lower-is-worse``) is the baseline.  A run regresses when its
        value is worse than the baseline by more than *tolerance_pct*
        percent.  Results sort worst-first.
        """
        if direction not in ("higher-is-worse", "lower-is-worse"):
            raise ObservabilityError(f"bad regression direction {direction!r}")
        with_metric = [r for r in self.records() if r.metric(metric) is not None]
        if not with_metric:
            return []
        if baseline is not None:
            base = self.get(baseline)
            if base.metric(metric) is None:
                raise ObservabilityError(
                    f"baseline {baseline!r} has no metric {metric!r}"
                )
        elif direction == "higher-is-worse":
            base = min(with_metric, key=lambda r: (r.metrics[metric], r.record_id))
        else:
            base = min(with_metric, key=lambda r: (-r.metrics[metric], r.record_id))
        base_value = base.metrics[metric]
        out: list[dict[str, Any]] = []
        for record in with_metric:
            if record.record_id == base.record_id:
                continue
            value = record.metrics[metric]
            if base_value == 0.0:
                delta_pct = 0.0 if value == base_value else float("inf")
            else:
                delta_pct = (value - base_value) / abs(base_value) * 100.0
            if direction == "lower-is-worse":
                delta_pct = -delta_pct
            if delta_pct > tolerance_pct:
                out.append({
                    "record_id": record.record_id,
                    "path": record.path,
                    "metric": metric,
                    "value": value,
                    "baseline": base.record_id,
                    "baseline_value": base_value,
                    "delta_pct": delta_pct,
                })
        out.sort(key=lambda row: (-row["delta_pct"], row["record_id"]))
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.store",
        description="Index and query committed BENCH/run-report JSON.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to index")
    parser.add_argument("--list", action="store_true", help="list indexed records")
    parser.add_argument("--keys", action="store_true", help="list metric keys")
    parser.add_argument("--query", nargs=3, metavar=("METRIC", "OP", "VALUE"),
                        help="records where METRIC OP VALUE (ops: LT LE GT GE EQ)")
    parser.add_argument("--regressions", metavar="METRIC",
                        help="runs where METRIC regressed vs the baseline")
    parser.add_argument("--baseline", default=None, help="baseline record id")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="regression tolerance in percent")
    parser.add_argument("--direction", default="higher-is-worse",
                        choices=("higher-is-worse", "lower-is-worse"))
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    args = parser.parse_args(argv)

    store = RunStore()
    indexed = sum(store.index(path) for path in args.paths)

    def dump(payload: Any) -> None:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif isinstance(payload, list):
            for row in payload:
                print(row if isinstance(row, str) else json.dumps(row, sort_keys=True))
        else:
            print(payload)

    if args.query:
        metric, op, value = args.query
        hits = store.query(metric, op, float(value))
        dump([{"record_id": r.record_id, "path": r.path, "value": r.metrics[metric]}
              for r in hits])
        return 0
    if args.regressions:
        rows = store.regressions(
            args.regressions, baseline=args.baseline,
            tolerance_pct=args.tolerance, direction=args.direction,
        )
        dump(rows)
        return 0
    if args.keys:
        dump(store.metric_keys())
        return 0
    # Default action (and --list): enumerate the indexed records.
    dump([
        {"record_id": r.record_id, "kind": r.kind, "name": r.name,
         "path": r.path, "metrics": len(r.metrics)}
        for r in store.records()
    ])
    sys.stderr.write(f"indexed {indexed} run documents\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
