"""OpenMetrics text rendering of a :class:`MetricsRegistry`.

:func:`render_openmetrics` turns the registry into the Prometheus /
OpenMetrics text exposition format: counters as ``_total`` samples,
gauges as plain samples, latency histograms as cumulative ``le`` buckets
plus a companion ``*_quantile`` gauge family carrying the interpolated
p50/p95/p99 with ``quantile`` labels.  Output is deterministic — metric
families are sorted by name and floats render via ``repr`` — so
same-seed runs produce byte-identical exports.

:func:`parse_openmetrics` is a deliberately *strict* parser used by the
test suite to keep the renderer honest: it validates name syntax, label
syntax, TYPE declarations, cumulative bucket monotonicity, and the
terminal ``# EOF`` marker.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate
from typing import Any

from repro.errors import ObservabilityError
from repro.telemetry.metrics import MetricsRegistry

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))


def sanitize_metric_name(name: str, prefix: str = "dyflow_") -> str:
    """Dotted registry name → legal OpenMetrics family name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return prefix + cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value for the text exposition format.

    The three escapes the spec defines: backslash, double-quote, and
    line feed.  Everything else (including non-ASCII UTF-8) passes
    through verbatim.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_UNESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE_MAP = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape_label_value(raw: str, where: str) -> str:
    """Strict left-to-right unescape of a quoted label value."""

    def repl(m: re.Match[str]) -> str:
        ch = m.group(1)
        out = _UNESCAPE_MAP.get(ch)
        if out is None:
            raise ObservabilityError(f"{where}: bad escape sequence '\\{ch}' in label value")
        return out

    return _UNESCAPE_RE.sub(repl, raw)


def _fmt(value: float) -> str:
    """Deterministic number rendering (ints without the trailing ``.0``)."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_families(registries: dict[str, MetricsRegistry], label: str, prefix: str) -> str:
    """The one family loop: same-named instruments across *registries* are
    one family, each sample tagged ``label="<key>"`` (untagged without *label*)."""
    counters: dict[str, list[tuple[str, str, Any]]] = {}
    gauges: dict[str, list[tuple[str, str, Any]]] = {}
    hists: dict[str, list[tuple[str, str, Any]]] = {}
    for key in sorted(registries):
        reg = registries[key]
        # A sample's whole label set, and the opening of one that goes on.
        only, lead = "", "{"
        if label:
            tag = f'{label}="{escape_label_value(key)}"'
            only, lead = f"{{{tag}}}", f"{{{tag},"
        for c in reg.counters():
            counters.setdefault(c.name, []).append((only, lead, c))
        for g in reg.gauges():
            gauges.setdefault(g.name, []).append((only, lead, g))
        for h in reg.histograms():
            hists.setdefault(h.name, []).append((only, lead, h))

    lines: list[str] = []
    for cname in sorted(counters):
        name = sanitize_metric_name(cname, prefix)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"# HELP {name} Counter {cname}")
        for only, _, c in counters[cname]:
            lines.append(f"{name}_total{only} {_fmt(c.value)}")
    for gname in sorted(gauges):
        name = sanitize_metric_name(gname, prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"# HELP {name} Gauge {gname}")
        for only, _, g in gauges[gname]:
            lines.append(f"{name}{only} {_fmt(g.value)}")
    for hname in sorted(hists):
        name = sanitize_metric_name(hname, prefix)
        lines.append(f"# TYPE {name} histogram")
        lines.append(f"# HELP {name} Histogram {hname}")
        quantile_lines: list[str] = []
        for only, lead, h in hists[hname]:
            # counts has one overflow slot past bounds: the +Inf bucket.
            for bound, seen in zip((*h.bounds, math.inf), accumulate(h.counts)):
                lines.append(f'{name}_bucket{lead}le="{_fmt(bound)}"}} {seen}')
            lines.append(f"{name}_count{only} {h.count}")
            lines.append(f"{name}_sum{only} {_fmt(h.total)}")
            if h.count > 0:
                for q, _plabel in _QUANTILES:
                    quantile_lines.append(
                        f'{name}_quantile{lead}quantile="{_fmt(q)}"}} '
                        f"{_fmt(h.percentile(q * 100.0))}"
                    )
        if quantile_lines:
            qname = f"{name}_quantile"
            lines.append(f"# TYPE {qname} gauge")
            lines.append(f"# HELP {qname} Interpolated quantiles of {hname}")
            lines.extend(quantile_lines)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(registry: MetricsRegistry, prefix: str = "dyflow_") -> str:
    """The registry as OpenMetrics text, ending in ``# EOF``."""
    return _render_families({"": registry}, "", prefix)


def write_openmetrics(path: str, registry: MetricsRegistry, prefix: str = "dyflow_") -> str:
    """Render to *path*; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_openmetrics(registry, prefix))
    return path


def render_labeled_openmetrics(
    registries: dict[str, MetricsRegistry],
    label: str = "tenant",
    prefix: str = "dyflow_",
) -> str:
    """Merge per-key registries into labeled OpenMetrics families.

    Same-named instruments across the *registries* mapping become one
    family whose samples carry ``label="<key>"`` — the fleet rollup
    export (one registry per tenant → tenant-labeled families).  Output
    is deterministic: families sorted by name, then samples sorted by
    label value, and label values escaped per the exposition format.
    """
    if not _LABEL_NAME_RE.match(label):
        raise ObservabilityError(f"bad label name {label!r}")
    return _render_families(registries, label, prefix)


def _parse_value(text: str, where: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ObservabilityError(f"{where}: bad sample value {text!r}") from None


def _parse_labels(text: str | None, where: str) -> dict[str, str]:
    if not text:
        return {}
    labels: dict[str, str] = {}
    # name="value" pairs; values may contain escaped quotes/backslashes.
    pair_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    pos = 0
    while pos < len(text):
        m = pair_re.match(text, pos)
        if m is None:
            raise ObservabilityError(f"{where}: malformed labels {text!r}")
        name, raw = m.group(1), m.group(2)
        if not _LABEL_NAME_RE.match(name):
            raise ObservabilityError(f"{where}: bad label name {name!r}")
        if name in labels:
            raise ObservabilityError(f"{where}: duplicate label {name!r}")
        labels[name] = _unescape_label_value(raw, where)
        pos = m.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ObservabilityError(f"{where}: malformed labels {text!r}")
            pos += 1
    return labels


def _family_of(sample_name: str, families: dict[str, dict[str, Any]]) -> str | None:
    """Resolve a sample line to its declared family, suffix-aware."""
    if sample_name in families:
        return sample_name
    for suffix in ("_total", "_bucket", "_count", "_sum"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base
    return None


_ALLOWED_SUFFIXES = {
    "counter": {"_total"},
    "gauge": {""},
    "histogram": {"_bucket", "_count", "_sum"},
    "summary": {"", "_count", "_sum"},
    "untyped": {""},
}


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Strictly parse OpenMetrics text; returns family → metadata/samples.

    Raises :class:`ObservabilityError` on any deviation: unknown or
    re-declared families, samples before their TYPE, malformed names,
    labels or values, non-cumulative histogram buckets, a missing
    ``+Inf`` bucket, missing or non-terminal ``# EOF``.
    """
    families: dict[str, dict[str, Any]] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ObservabilityError("openmetrics text must end with '# EOF'")
    for i, line in enumerate(lines[:-1], start=1):
        where = f"line {i}"
        if "# EOF" == line:
            raise ObservabilityError(f"{where}: '# EOF' before end of input")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in ("TYPE", "HELP", "UNIT"):
                raise ObservabilityError(f"{where}: malformed comment {line!r}")
            keyword, fname = parts[1], parts[2]
            if not _NAME_RE.match(fname):
                raise ObservabilityError(f"{where}: bad metric name {fname!r}")
            if keyword == "TYPE":
                ftype = parts[3] if len(parts) > 3 else ""
                if ftype not in _TYPES:
                    raise ObservabilityError(f"{where}: unknown metric type {ftype!r}")
                if fname in families:
                    raise ObservabilityError(f"{where}: family {fname!r} re-declared")
                families[fname] = {"type": ftype, "help": None, "samples": []}
            elif keyword == "HELP":
                if fname not in families:
                    raise ObservabilityError(f"{where}: HELP before TYPE for {fname!r}")
                families[fname]["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if not line.strip():
            raise ObservabilityError(f"{where}: blank lines are not allowed")
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ObservabilityError(f"{where}: malformed sample {line!r}")
        sample_name = m.group("name")
        fname = _family_of(sample_name, families)
        if fname is None:
            raise ObservabilityError(f"{where}: sample {sample_name!r} has no TYPE")
        suffix = sample_name[len(fname):]
        if suffix not in _ALLOWED_SUFFIXES[families[fname]["type"]]:
            raise ObservabilityError(
                f"{where}: suffix {suffix!r} not allowed for "
                f"{families[fname]['type']} family {fname!r}"
            )
        labels = _parse_labels(m.group("labels"), where)
        value = _parse_value(m.group("value"), where)
        families[fname]["samples"].append(
            {"name": sample_name, "labels": labels, "value": value}
        )
    for fname, family in families.items():
        if family["type"] == "histogram":
            _check_histogram(fname, family)
    return families


def _series_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Identity of one histogram series: every label except ``le``."""
    return tuple(sorted((k, v) for k, v in labels.items() if k != "le"))


def _check_histogram(fname: str, family: dict[str, Any]) -> None:
    buckets = [s for s in family["samples"] if s["name"] == f"{fname}_bucket"]
    counts = [s for s in family["samples"] if s["name"] == f"{fname}_count"]
    if not buckets:
        raise ObservabilityError(f"histogram {fname!r} has no buckets")
    # Labeled families (e.g. per-tenant) carry one bucket series per
    # distinct non-`le` label set; each series must be independently
    # sorted, cumulative, and +Inf-terminated.
    series: dict[tuple[tuple[str, str], ...], tuple[list[float], list[float]]] = {}
    for s in buckets:
        le = s["labels"].get("le")
        if le is None:
            raise ObservabilityError(f"histogram {fname!r}: bucket without 'le' label")
        bounds, values = series.setdefault(_series_key(s["labels"]), ([], []))
        bounds.append(_parse_value(le, f"histogram {fname!r} le"))
        values.append(s["value"])
    count_by_series = {_series_key(s["labels"]): s["value"] for s in counts}
    for key, (bounds, values) in series.items():
        where = f"histogram {fname!r}" + (f" {dict(key)!r}" if key else "")
        if bounds != sorted(bounds):
            raise ObservabilityError(f"{where}: bucket bounds not sorted")
        if not math.isinf(bounds[-1]):
            raise ObservabilityError(f"{where}: missing '+Inf' bucket")
        if any(b > a for a, b in zip(values[1:], values)):
            raise ObservabilityError(f"{where}: bucket counts not cumulative")
        if key in count_by_series and count_by_series[key] != values[-1]:
            raise ObservabilityError(f"{where}: _count disagrees with '+Inf' bucket")
