"""The typed-diagnostic core shared by both analysis engines.

Every finding — from the spec verifier or the determinism self-lint —
is a :class:`Diagnostic` with a stable ``DY###`` code, a severity, a
source location (an XML path into the spec document or a ``file:line``
pair), and a message.  Diagnostics order deterministically so repeated
runs over the same input produce byte-identical reports in every output
format (text, JSON, SARIF).

Flow-sensitive findings additionally carry a **witness**: the ordered
event sequence of the abstract execution that triggers the defect (see
:mod:`repro.lint.dataflow`).  Fixable findings carry structured
``data`` key/value facts the auto-fix engine consumes
(:mod:`repro.lint.fixes`) and, once a fix is planned, a
:class:`FixHint` that renders as a SARIF ``fixes`` object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import LintError


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``error > warning > info``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic anchors: an XML path or a ``file:line`` pair.

    Spec diagnostics use *xml_path* — a logical path into the document
    (e.g. ``decision/policies/policy[@id='INC']``); self-lint
    diagnostics use *file* and *line*.  Both may be absent for
    document-level findings.
    """

    xml_path: str | None = None
    file: str | None = None
    line: int | None = None

    def __str__(self) -> str:
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line is not None else self.file
        if self.xml_path is not None:
            return self.xml_path
        return "<spec>"

    def to_dict(self) -> dict:
        out: dict = {}
        if self.xml_path is not None:
            out["xml_path"] = self.xml_path
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        return out


@dataclass(frozen=True)
class WitnessEvent:
    """One step of the abstract execution that demonstrates a finding.

    Dataflow diagnostics (DY205/DY304/DY413, see
    :mod:`repro.lint.dataflow`) attach an ordered tuple of these so the
    report shows *how* the defect is reached, not just that it exists.
    """

    step: int
    event: str
    detail: str = ""

    def to_dict(self) -> dict:
        out: dict = {"step": self.step, "event": self.event}
        if self.detail:
            out["detail"] = self.detail
        return out

    def format(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{self.step}] {self.event}{tail}"


@dataclass(frozen=True)
class FixHint:
    """A safe mechanical fix for one diagnostic.

    *description* says what the fix does; *replacement* is the full
    fixed document text (the SARIF renderer emits it as a
    whole-artifact replacement so code-scanning UIs can apply it);
    *span* is the character length of the original document, i.e. the
    deleted region the replacement substitutes.
    """

    description: str
    replacement: str | None = None
    span: int | None = None

    def to_dict(self) -> dict:
        out: dict = {"description": self.description}
        if self.replacement is not None:
            out["replacement"] = self.replacement
        if self.span is not None:
            out["span"] = self.span
        return out


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one stable diagnostic code."""

    code: str
    title: str
    default_severity: Severity
    engine: str  # "spec" or "self"


def _spec(code: str, title: str, sev: Severity = Severity.ERROR) -> CodeInfo:
    return CodeInfo(code, title, sev, "spec")


def _self(code: str, title: str, sev: Severity = Severity.ERROR) -> CodeInfo:
    return CodeInfo(code, title, sev, "self")


#: The complete, stable code catalog.  Codes are never renumbered; a
#: retired check keeps its number reserved.  See docs/static-analysis.md.
CODES: dict[str, CodeInfo] = {
    c.code: c
    for c in (
        # -- document level ------------------------------------------------
        _spec("DY100", "spec failed to parse"),
        # -- cross-references (DY1xx) --------------------------------------
        _spec("DY101", "monitor-task uses an unknown sensor"),
        _spec("DY102", "policy assesses an unknown sensor"),
        _spec("DY103", "apply-policy references an unknown policy"),
        _spec("DY104", "policy granularity not produced by its sensor"),
        _spec("DY105", "policy-priority names an unknown policy"),
        _spec("DY106", "rule references a task nothing monitors or acts on",
              Severity.WARNING),
        _spec("DY107", "sensor join references an unknown sensor"),
        _spec("DY108", "sensor is never used by any policy", Severity.WARNING),
        _spec("DY109", "policy is never applied to any workflow", Severity.WARNING),
        _spec("DY110", "monitor-task names a task the workflow does not define"),
        _spec("DY111", "apply-policy targets a task the workflow does not define"),
        _spec("DY112", "policy can never fire: no monitor binding feeds it"),
        # -- resources and placement (DY2xx) -------------------------------
        _spec("DY201", "initial placement oversubscribes the machine"),
        _spec("DY202", "gang placement can never be satisfied"),
        _spec("DY203", "resource adjustment can never fit the machine"),
        _spec("DY204", "arbitration rule dependencies form a cycle"),
        _spec("DY205", "placement feasible initially but an adjustment sequence "
              "oversubscribes the machine", Severity.WARNING),
        # -- rule interaction (DY3xx) --------------------------------------
        _spec("DY301", "policy is shadowed by a subsuming policy", Severity.WARNING),
        _spec("DY302", "policies can co-fire with contradictory actions"),
        _spec("DY303", "policy condition is unsatisfiable"),
        _spec("DY304", "policy is unreachable under the dominating threshold "
              "order", Severity.WARNING),
        # -- parameter ranges (DY4xx) --------------------------------------
        _spec("DY401", "retry backoff cap is below the backoff base", Severity.WARNING),
        _spec("DY402", "watchdog poll exceeds the heartbeat timeout", Severity.WARNING),
        _spec("DY403", "journal configuration out of range"),
        _spec("DY404", "SLO/anomaly configuration out of range"),
        _spec("DY406", "quarantine cooldown shorter than its window", Severity.WARNING),
        _spec("DY407", "resilience configuration out of range"),
        _spec("DY408", "network drops messages but the retransmit budget is zero",
              Severity.WARNING),
        _spec("DY409", "partition window outlasts the watchdog heartbeat timeout",
              Severity.WARNING),
        _spec("DY410", "tenant quota exceeds the shared machine's capacity"),
        _spec("DY411", "executor injects worker kills but has no retry budget",
              Severity.WARNING),
        _spec("DY412", "observability SLO references an unknown tenant id"),
        _spec("DY413", "tenant quotas jointly unsatisfiable under fair-share "
              "admission", Severity.WARNING),
        # -- determinism self-lint (DY5xx) ----------------------------------
        _self("DY501", "wall-clock call in a deterministic core path"),
        _self("DY502", "global or unseeded RNG outside repro.sim.rng"),
        _self("DY503", "iteration over a set: order is not deterministic"),
        _self("DY504", "mutable module-level state in a stage module"),
        # -- concurrency self-lint (fork/thread safety) ---------------------
        _self("DY505", "mutable class-level state shared across threads"),
        _self("DY506", "module-level file handle inherited by forked workers"),
        _self("DY507", "RNG drawn in a fork-worker entry before the per-cell "
              "reseed"),
        _self("DY508", "wall-clock read inside a fork-worker entry"),
        _self("DY509", "blocking I/O inside the sim tick path"),
        _self("DY510", "suppression comment suppresses nothing", Severity.WARNING),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One immutable finding.

    Sorting is total and deterministic: severity (errors first), then
    code, then location, then message.  *witness* is the ordered
    abstract-execution trace for flow-sensitive findings; *data* holds
    structured facts the auto-fix engine consumes; *fix* is attached by
    the fix planner when a safe mechanical fix exists.
    """

    code: str
    message: str
    severity: Severity
    location: SourceLocation = field(default_factory=SourceLocation)
    witness: tuple[WitnessEvent, ...] = ()
    data: tuple[tuple[str, str], ...] = ()
    fix: FixHint | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise LintError(f"unknown diagnostic code {self.code!r}")

    @property
    def title(self) -> str:
        return CODES[self.code].title

    def datum(self, key: str) -> str | None:
        """The value of one structured fact, or None."""
        for k, v in self.data:
            if k == key:
                return v
        return None

    def with_fix(self, hint: FixHint) -> "Diagnostic":
        return replace(self, fix=hint)

    def sort_key(self) -> tuple:
        return (-self.severity.rank, self.code, str(self.location), self.message)

    def format(self) -> str:
        """``location: severity DY###: message``."""
        return f"{self.location}: {self.severity.value} {self.code}: {self.message}"

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
        }
        if self.witness:
            out["witness"] = [w.to_dict() for w in self.witness]
        if self.data:
            out["data"] = {k: v for k, v in self.data}
        if self.fix is not None:
            out["fix"] = self.fix.to_dict()
        return out


def make(
    code: str,
    message: str,
    *,
    xml_path: str | None = None,
    file: str | None = None,
    line: int | None = None,
    severity: Severity | None = None,
    witness: tuple[WitnessEvent, ...] = (),
    data: tuple[tuple[str, str], ...] = (),
) -> Diagnostic:
    """Build a diagnostic for a registered code (default severity unless
    overridden)."""
    info = CODES.get(code)
    if info is None:
        raise LintError(f"unknown diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else info.default_severity,
        location=SourceLocation(xml_path=xml_path, file=file, line=line),
        witness=tuple(witness),
        data=tuple(data),
    )


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """The canonical deterministic ordering used by every renderer."""
    return sorted(diags, key=Diagnostic.sort_key)


def max_severity(diags: list[Diagnostic]) -> Severity | None:
    """The highest severity present, or None for a clean result."""
    if not diags:
        return None
    return max((d.severity for d in diags), key=lambda s: s.rank)
