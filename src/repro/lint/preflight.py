"""Pre-flight verification for both runtimes.

Both :class:`~repro.runtime.sim_driver.DyflowOrchestrator` and
:class:`~repro.runtime.threaded.ThreadedDyflow` accept a
``preflight=`` setting:

``"off"``
    (default) no verification; identical behavior to earlier releases.
``"warn"``
    run the spec verifier before tick zero and emit a
    :class:`PreflightWarning` carrying the findings; the run proceeds.
``"strict"``
    run the verifier and raise :class:`repro.errors.VerificationError`
    before tick zero if any error-severity diagnostic is present.

Verification is pure analysis over already-configured state — it draws
no RNG stream and reads no clock — so enabling it never changes the
behavior (or the scenario fingerprint) of a spec that passes.  Because
it delegates to :func:`~repro.lint.speclint.verify_spec`, the
flow-sensitive dataflow diagnostics (DY205/DY304/DY413, with witnesses)
surface through preflight as well when a machine/workflow is attached.
"""

from __future__ import annotations

import warnings

from repro.errors import LintError, VerificationError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.speclint import verify_spec
from repro.xmlspec.model import DyflowSpec, MonitorTaskSpec, RuleSpec

PREFLIGHT_MODES = ("off", "warn", "strict")


class PreflightWarning(UserWarning):
    """Pre-flight verification produced findings in ``warn`` mode."""


def check_mode(mode: str) -> str:
    if mode not in PREFLIGHT_MODES:
        raise LintError(
            f"unknown preflight mode {mode!r} (choose from {PREFLIGHT_MODES})"
        )
    return mode


def run_preflight(
    mode: str,
    spec: DyflowSpec,
    machine=None,
    workflow=None,
) -> list[Diagnostic]:
    """Verify *spec* under *mode*; returns the diagnostics it produced.

    Raises :class:`VerificationError` (strict mode, error findings) or
    emits a :class:`PreflightWarning` (warn mode, any findings).
    """
    if check_mode(mode) == "off":
        return []
    diags = verify_spec(spec, machine=machine, workflow=workflow)
    if mode == "strict":
        if any(d.severity is Severity.ERROR for d in diags):
            raise VerificationError(diags)
    elif diags:
        lines = [f"pre-flight verification found {len(diags)} issue(s):"]
        lines += [f"  {d.format()}" for d in diags]
        warnings.warn(PreflightWarning("\n".join(lines)), stacklevel=3)
    return diags


# --------------------------------------------------------------------------- #
# spec reconstruction from a configured runtime
# --------------------------------------------------------------------------- #
def spec_from_runtime(rt) -> DyflowSpec:
    """Rebuild the effective :class:`DyflowSpec` of a configured driver
    (anything wired by :class:`~repro.runtime.core.RuntimeCore`)."""
    monitor_tasks = [
        MonitorTaskSpec(
            task=binding.instance.task,
            workflow_id=binding.instance.workflow_id,
            sensor_id=binding.instance.spec.sensor_id,
        )
        for client in rt.clients
        for binding in client.bindings
    ]
    rules = {
        rt.workflow_id: RuleSpec(
            workflow_id=rt.workflow_id,
            task_priorities=dict(rt.rules.task_priorities),
            policy_priorities=dict(rt.rules.policy_priorities),
            dependencies=list(rt.rules.dependencies),
        )
    }
    return DyflowSpec(
        sensors=dict(rt._sensors),
        monitor_tasks=monitor_tasks,
        policies={p.policy_id: p for p in rt.decision.policies},
        applications=[r.application for r in rt.decision.runtimes],
        rules=rules,
        resilience=rt.resilience,
        telemetry=rt.telemetry,
        journal=rt._journal_spec,
        observability=rt.observability,
    )


def preflight_orchestrator(orch, mode: str) -> list[Diagnostic]:
    """Verify a configured simulation orchestrator before tick zero."""
    return run_preflight(
        mode,
        spec_from_runtime(orch),
        machine=orch.launcher.machine,
        workflow=orch.launcher.workflow,
    )

