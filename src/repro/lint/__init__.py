"""Static analysis for DYFLOW: spec verifier + determinism self-lint.

Two engines share one typed-diagnostic core:

* :func:`verify_spec` analyzes a parsed :class:`~repro.xmlspec.model.DyflowSpec`
  (plus an optional machine model and workflow) entirely statically and
  reports dangling references, infeasible placements, shadowed or
  conflicting policies, arbitration cycles, and out-of-range parameters.
* :func:`run_selflint` AST-checks the repro source tree for the
  determinism invariants the journal and observability subsystems rely
  on (no wall-clock in core paths, named RNG streams only, no
  set-iteration hazards, no mutable stage-module state) and for the
  fork/thread-safety hazards of the campaign layer (shared class
  state, inherited file handles, pre-reseed RNG draws, wall-clock in
  fork workers, blocking I/O on the tick path).

The spec verifier includes a flow-sensitive abstract-interpretation
pass (:func:`analyze_dataflow`) whose findings carry event-sequence
witnesses, and the mechanical subset of findings is auto-repairable
via :func:`fix_xml_text` / ``python -m repro.lint --fix``.

Findings are :class:`Diagnostic` values with stable ``DY###`` codes and
deterministic ordering, renderable as text, JSON, or SARIF 2.1.0 (see
:mod:`repro.lint.render` and the ``python -m repro.lint`` CLI).  Both
runtimes run the spec verifier before tick zero when constructed with
``preflight="warn"`` or ``preflight="strict"``.
"""

from repro.errors import LintError, VerificationError
from repro.lint.dataflow import analyze_dataflow
from repro.lint.diagnostics import (
    CODES,
    CodeInfo,
    Diagnostic,
    FixHint,
    Severity,
    SourceLocation,
    WitnessEvent,
    make,
    max_severity,
    sort_diagnostics,
)
from repro.lint.fixes import FIXABLE_CODES, FixResult, fix_spec, fix_xml_text
from repro.lint.preflight import (
    PREFLIGHT_MODES,
    PreflightWarning,
    run_preflight,
    spec_from_runtime,
)
from repro.lint.render import FORMATS, render, render_json, render_sarif, render_text
from repro.lint.selflint import run_selflint
from repro.lint.speclint import lint_xml_text, verify_spec

__all__ = [
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "FIXABLE_CODES",
    "FORMATS",
    "FixHint",
    "FixResult",
    "LintError",
    "PREFLIGHT_MODES",
    "PreflightWarning",
    "Severity",
    "SourceLocation",
    "VerificationError",
    "WitnessEvent",
    "analyze_dataflow",
    "fix_spec",
    "fix_xml_text",
    "lint_xml_text",
    "make",
    "max_severity",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "run_preflight",
    "run_selflint",
    "sort_diagnostics",
    "spec_from_runtime",
    "verify_spec",
]
