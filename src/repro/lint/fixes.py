"""Safe auto-fixes for the mechanical subset of spec diagnostics.

``python -m repro.lint --fix`` (and the :func:`fix_xml_text` API)
rewrites a spec document through :func:`repro.xmlspec.write_dyflow_xml`
to repair defects whose fix is provably behavior-preserving:

* **dead-construct elimination** — DY108 unused sensors, DY109
  never-applied policies, DY112 applications no monitor binding can
  ever feed: none of them can influence a run, so removal is safe;
* **threshold-interval subsumption** — DY301: a policy whose every
  firing is matched by a wider policy suggesting the *same* action with
  the *same* parameters on a superset of its targets is removed (the
  fixer re-proves full coverage before touching anything — a partial
  overlap is reported but left alone);
* **parameter-range clamping** — DY401 raises ``backoff-max`` to
  ``backoff-base`` (the runtime clamps every delay there anyway).

Fixes cascade deterministically — deleting a dead application (DY112)
strands its policy (DY109), which strands its sensor (DY108) — so the
engine loops fix rounds to a **fixed point**: the returned document
re-parses and re-lints free of every fixed code in one CLI invocation.
A document with nothing to fix is returned as the *same string object*,
so clean specs are byte-identical and their fingerprints untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.lint.diagnostics import Diagnostic, FixHint, make, sort_diagnostics
from repro.lint.speclint import verify_spec
from repro.xmlspec.model import DyflowSpec

#: Codes the engine knows how to repair.  Everything else is reported
#: untouched — a fix we cannot prove safe is not a fix.
FIXABLE_CODES = frozenset({"DY108", "DY109", "DY112", "DY301", "DY401"})

#: Cascade depth bound.  Each round fixes at least one construct, and a
#: document has finitely many, so this is a defensive backstop only.
MAX_ROUNDS = 32


@dataclass(frozen=True)
class FixResult:
    """Outcome of one auto-fix pass over one document.

    *text* is the fixed document — the **same object** as the input
    when nothing was fixed.  *fixed* holds the repaired diagnostics,
    each carrying a :class:`FixHint` (description + full replacement
    text) for SARIF ``fixes`` rendering.  *remaining* is the re-lint of
    the emitted text: what the fixer could not or would not touch.
    """

    text: str
    fixed: tuple[Diagnostic, ...]
    remaining: tuple[Diagnostic, ...]
    rounds: int

    @property
    def changed(self) -> bool:
        return bool(self.fixed)


def fix_spec(
    spec: DyflowSpec, machine=None, workflow=None
) -> tuple[list[Diagnostic], list[Diagnostic], int]:
    """Fix *spec* in place to a fixed point.

    Returns ``(fixed, remaining, rounds)`` where *fixed* are the
    repaired diagnostics (hint attached) and *remaining* is the final
    clean-round lint result.
    """
    fixed: list[Diagnostic] = []
    for rounds in range(1, MAX_ROUNDS + 1):
        diags = verify_spec(spec, machine=machine, workflow=workflow)
        round_fixed = _apply_round(spec, diags)
        if not round_fixed:
            return fixed, diags, rounds - 1
        fixed += round_fixed
    raise AssertionError(
        f"auto-fix did not converge in {MAX_ROUNDS} rounds"
    )  # pragma: no cover - each round strictly shrinks the document


def fix_xml_text(
    text: str,
    machine=None,
    workflow=None,
    filename: str | None = None,
) -> FixResult:
    """Parse, fix, and re-emit one XML document.

    A document that fails to parse is returned untouched with the
    single DY100 as *remaining*.  A document with nothing fixable is
    returned as the same string object (byte-identical guarantee).
    """
    from repro.errors import XmlSpecError
    from repro.lint.speclint import lint_xml_text
    from repro.xmlspec.parser import parse_dyflow_xml
    from repro.xmlspec.writer import write_dyflow_xml

    try:
        spec = parse_dyflow_xml(text, validate=False)
    except (XmlSpecError, ValueError) as err:
        diag = make(
            "DY100", str(err),
            file=filename, xml_path=None if filename else "dyflow",
        )
        return FixResult(text=text, fixed=(), remaining=(diag,), rounds=0)

    fixed, _, rounds = fix_spec(spec, machine=machine, workflow=workflow)
    if not fixed:
        remaining = lint_xml_text(
            text, machine=machine, workflow=workflow, filename=filename
        )
        return FixResult(
            text=text, fixed=(), remaining=tuple(remaining), rounds=rounds
        )

    new_text = write_dyflow_xml(spec)
    # The fixed-point guarantee, enforced rather than assumed: the
    # emitted document must re-parse and re-lint free of every code we
    # claim to have fixed.
    remaining = lint_xml_text(
        new_text, machine=machine, workflow=workflow, filename=filename
    )
    fixed_codes = {d.code for d in fixed}
    leftovers = [d for d in remaining if d.code in fixed_codes]
    assert not leftovers, (
        f"auto-fix left {sorted({d.code for d in leftovers})} findings "
        "in its own output"
    )
    span = len(text)
    fixed = [
        replace(
            d,
            fix=FixHint(
                description=d.fix.description,
                replacement=new_text,
                span=span,
            ),
            location=d.location if filename is None else type(d.location)(
                xml_path=d.location.xml_path, file=filename,
                line=d.location.line,
            ),
        )
        for d in fixed
    ]
    return FixResult(
        text=new_text,
        fixed=tuple(sort_diagnostics(fixed)),
        remaining=tuple(remaining),
        rounds=rounds,
    )


# --------------------------------------------------------------------------- #
# one fix round
# --------------------------------------------------------------------------- #
def _apply_round(spec: DyflowSpec, diags: list[Diagnostic]) -> list[Diagnostic]:
    """Apply every provably-safe fix visible in *diags*; returns the
    diagnostics that were fixed, hint attached."""
    fixed: list[Diagnostic] = []
    drop_apps: list[int] = []
    drop_policies: list[str] = []
    drop_sensors: list[str] = []

    for d in sort_diagnostics([d for d in diags if d.code in FIXABLE_CODES]):
        if d.code == "DY112":
            idx = d.datum("app_index")
            if idx is not None and int(idx) < len(spec.applications):
                drop_apps.append(int(idx))
                fixed.append(d.with_fix(FixHint(
                    f"remove apply-policy of {d.datum('policy_id')!r}: no "
                    "monitor binding can ever feed it",
                )))
        elif d.code == "DY301":
            pid = d.datum("policy_id")
            outer = d.datum("subsumed_by")
            if (
                pid in spec.policies
                and pid not in drop_policies
                and _dy301_removable(spec, pid, outer)
            ):
                drop_policies.append(pid)
                fixed.append(d.with_fix(FixHint(
                    f"remove policy {pid!r}: every firing is matched by "
                    f"the wider {outer!r} with identical effect",
                )))
        elif d.code == "DY109":
            pid = d.datum("policy_id")
            if pid in spec.policies and pid not in drop_policies:
                drop_policies.append(pid)
                fixed.append(d.with_fix(FixHint(
                    f"remove policy {pid!r}: it is applied to no workflow",
                )))
        elif d.code == "DY108":
            sid = d.datum("sensor_id")
            if sid in spec.sensors and sid not in drop_sensors:
                drop_sensors.append(sid)
                fixed.append(d.with_fix(FixHint(
                    f"remove sensor {sid!r}: nothing binds or assesses it",
                )))
        elif d.code == "DY401":
            hint = _fix_backoff_cap(spec)
            if hint is not None:
                fixed.append(d.with_fix(hint))

    for idx in sorted(set(drop_apps), reverse=True):
        del spec.applications[idx]
    for pid in drop_policies:
        _remove_policy(spec, pid)
    for sid in drop_sensors:
        del spec.sensors[sid]
    return fixed


def _remove_policy(spec: DyflowSpec, pid: str) -> None:
    spec.policies.pop(pid, None)
    spec.applications[:] = [
        a for a in spec.applications if a.policy_id != pid
    ]
    # A dangling priority entry would turn the fix into a DY105 error.
    for rule in spec.rules.values():
        rule.policy_priorities.pop(pid, None)


def _dy301_removable(spec: DyflowSpec, inner_pid: str, outer_pid: str | None) -> bool:
    """Is removing *inner_pid* provably behavior-preserving?

    DY301 fires per application *pair* on a non-empty target
    intersection; removal is only safe when **every** application of
    the inner policy is fully covered: same workflow and assess task, a
    superset of its act-on targets, and identical merged action
    parameters.  Anything less would drop real effects.
    """
    inner = spec.policies.get(inner_pid)
    outer = spec.policies.get(outer_pid) if outer_pid else None
    if inner is None or outer is None:
        return False
    inner_apps = [a for a in spec.applications if a.policy_id == inner_pid]
    outer_apps = [a for a in spec.applications if a.policy_id == outer_pid]
    if not inner_apps:
        return False
    for ia in inner_apps:
        merged_in = dict(inner.default_params)
        merged_in.update(ia.action_params)
        covered = any(
            oa.workflow_id == ia.workflow_id
            and oa.assess_task == ia.assess_task
            and set(ia.act_on_tasks) <= set(oa.act_on_tasks)
            and _merged(outer, oa) == merged_in
            for oa in outer_apps
        )
        if not covered:
            return False
    return True


def _merged(policy, app) -> dict:
    out = dict(policy.default_params)
    out.update(app.action_params)
    return out


def _fix_backoff_cap(spec: DyflowSpec) -> FixHint | None:
    res = spec.resilience
    retry = res.retry if res is not None else None
    if retry is None or retry.backoff_max >= retry.backoff_base:
        return None
    spec.resilience = replace(
        res, retry=replace(retry, backoff_max=retry.backoff_base)
    )
    return FixHint(
        f"raise retry backoff-max to backoff-base {retry.backoff_base!r} "
        "(the runtime clamps every delay there anyway)",
    )
