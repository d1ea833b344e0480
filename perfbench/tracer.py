"""Outside-in span tracer: attributes host time to the repo's modules.

Nothing under ``src/`` knows about this file.  :class:`SpanTracer` swaps
the public functions named in :data:`TARGETS` for wrappers that record a
span -- ``[name, start, end, parent]`` -- around each call, keeps the spans
in memory, and restores every attribute on :meth:`SpanTracer.uninstall`.
After an iteration :meth:`SpanTracer.end` folds the spans into per-layer
numbers: a span's *self time* is its duration minus its child spans', and
each wrapped function adds its self time to one ``<module>.<metric>``
bucket.  Counts are taken by hooks at the same boundaries.

Only calls made O(ticks x clients + envelopes + plan ops + cells) times
are wrapped; per-sample inner calls stay in their caller's self time.

Generator functions (``IterativeApp.run``, ``ActuationStage.execute``,
the launcher's start/stop ops) get a wrapper that forwards ``send``,
``throw`` and ``close``: the engine stops tasks by throwing ``Interrupt``
into them, so a ``send``-only proxy would silently run a different
simulation.  The traced pass is therefore always checked against the
untraced fingerprints (see ``runner.py``).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

clock = time.perf_counter

UNATTRIBUTED = "host.unattributed"
_PATCH_SCOPES = ("repro", "perfbench")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


# -- count hooks: before(tr, args, kwargs) -> token; after(tr, token, args, kwargs, result) --
def _xml_bytes(tr, _tok, args, kwargs, _res):
    tr.counts["xmlspec.bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))


def _diagnostics(tr, _tok, _args, _kwargs, res):
    tr.counts["lint.diagnostics"] += len(res)


def _events_before(_tr, args, _kwargs):
    return args[0].events_executed


def _events_after(tr, tok, args, _kwargs, _res):
    tr.counts["sim.events"] += args[0].events_executed - tok


def _tick_open(tr, _args, _kwargs):
    if tr.tick_t0 is None:
        tr.tick_t0 = clock()


def _tick_close(tr, _tok, args, kwargs, res):
    if tr.tick_t0 is not None:
        tr.samples["tick_ms"].append((clock() - tr.tick_t0) * 1e3)
        tr.tick_t0 = None
    if _arg(args, kwargs, 1, "suggestions"):
        tr.counts["arbitrate_with_suggestions"] += 1
    if res is not None:
        tr.counts["core.arbitration.plans"] += 1
    # Keyed by the stage itself: an id() could be reused by the stage a
    # crash/resume builds after the old one is collected.
    tr.memo[args[0]] = args[0].memo_stats()


def _received(tr, _tok, _args, _kwargs, res):
    tr.counts["core.monitor.updates"] += len(res)
    if not res:
        tr.counts["core.monitor.dropped"] += 1


def _offered(tr, _tok, _args, _kwargs, res):
    if not res:
        tr.counts["core.monitor.dropped"] += 1


def _retransmitted(tr, _tok, _args, _kwargs, res):
    tr.counts["fabric.retransmits"] += len(res)


def _acked(tr, _tok, _args, _kwargs, res):
    if res:
        tr.counts["fabric.acked"] += 1


def _updates_seen(tr, args, kwargs):
    updates = _arg(args, kwargs, 1, "updates")
    if hasattr(updates, "__len__"):
        tr.counts["core.decision.updates_seen"] += len(updates)


def _suggested(tr, _tok, _args, _kwargs, res):
    tr.counts["core.decision.suggestions"] += len(res)


def _gated(tr, _tok, args, kwargs, res):
    tr.counts["core.decision.gated"] += len(_arg(args, kwargs, 1, "suggestions")) - len(res)


def _plan_ops(tr, args, kwargs):
    plan = _arg(args, kwargs, 1, "plan")
    tr.counts["core.actuation.ops"] += len(plan.ops)
    return plan


def _plan_done(tr, plan, _args, _kwargs, _res):
    if plan.execution_end is not None:
        tr.samples["response_sim_s"].append(plan.response_time)


def _wal_bytes(tr, _tok, _args, _kwargs, res):
    tr.counts["journal.bytes"] += res


def _records_read(tr, _tok, _args, _kwargs, res):
    tr.counts["journal.replayed_records"] += len(res.records)


def _health_alerts(tr, _tok, _args, _kwargs, res):
    tr.counts["observability.alerts"] += len(res)


def _cell_records(tr, _tok, _args, _kwargs, res):
    for rec in res:
        if rec["replayed"]:
            tr.counts["campaign.replayed"] += 1
            continue
        tr.counts["campaign.cells"] += 1
        tr.counts["campaign.retries"] += max(0, rec["attempts"] - 1)
        if rec["status"] == "poisoned":
            tr.counts["campaign.poisoned"] += 1


@dataclass(frozen=True)
class Target:
    """One public function to wrap, and the bucket its self time feeds."""

    module: str
    qualname: str  # "function" or "Class.method"
    bucket: str
    gen: bool = False
    before: Callable | None = None
    after: Callable | None = None


def _targets() -> tuple[Target, ...]:
    T = Target
    rm = "repro.cluster.resource_manager"
    mon = "repro.core.monitor"
    tel = "repro.telemetry.tracer"
    fleet = "repro.observability.fleet"
    drv = "repro.runtime.sim_driver"
    out = [
        T("repro.xmlspec.parser", "parse_dyflow_xml", "xmlspec.parse_s", after=_xml_bytes),
        T("repro.lint.speclint", "verify_spec", "lint.verify_s", after=_diagnostics),
        T("repro.lint.preflight", "preflight_orchestrator", "lint.verify_s"),
        T("repro.xmlspec.bootstrap", "configure_orchestrator", "runtime.configure_s"),
        T("repro.journal.resume", "scenario_fingerprint", "runtime.fingerprint_s"),
        T("repro.sim.engine", "SimEngine.run", "sim.self_s",
          before=_events_before, after=_events_after),
        T("repro.wms.launcher", "Savanna.launch_workflow", "wms.launch_s"),
        T("repro.wms.launcher", "Savanna.start_task_with_resources", "wms.self_s", gen=True),
        T("repro.wms.launcher", "Savanna.stop_task", "wms.self_s", gen=True),
        T("repro.wms.launcher", "Savanna.all_idle", "wms.self_s"),
        T("repro.apps.base", "IterativeApp.run", "apps.self_s", gen=True),
        T("repro.apps.base", "IterativeApp.step_time", "apps.self_s"),
        T("repro.staging.filesystem", "SimFilesystem.scan", "staging.scan_s"),
        T(mon, "MonitorClient.collect", "core.monitor.collect_s", before=_tick_open),
        T(mon, "MonitorClient.on_task_restart", "core.monitor.restart_s"),
        T(mon, "MonitorServer.receive", "core.monitor.ingest_s", after=_received),
        T(mon, "MonitorServer.offer", "core.monitor.ingest_s", after=_offered),
        T(mon, "MonitorServer.take_ingress", "core.monitor.ingest_s"),
        T("repro.fabric.link", "FabricLink.send", "fabric.self_s"),
        T("repro.fabric.link", "FabricLink.poll", "fabric.self_s", after=_retransmitted),
        T("repro.fabric.link", "FabricLink.on_ack", "fabric.self_s", after=_acked),
        T("repro.fabric.link", "FabricLink.plan_ack", "fabric.self_s"),
        T("repro.core.decision", "DecisionStage.ingest", "core.decision.self_s",
          before=_updates_seen),
        T("repro.core.decision", "DecisionStage.tick", "core.decision.self_s", after=_suggested),
        T("repro.core.decision", "DecisionStage.gate", "core.decision.self_s", after=_gated),
        T("repro.core.arbitration", "ArbitrationStage.arbitrate", "core.arbitration.self_s",
          after=_tick_close),
        T("repro.core.actuation", "ActuationStage.execute", "core.actuation.self_s", gen=True,
          before=_plan_ops, after=_plan_done),
        T("repro.core.actuation", "ActuationStage.resume_plan", "core.actuation.self_s",
          gen=True, before=_plan_ops, after=_plan_done),
        T("repro.journal.journal", "Journal.append", "journal.append_s"),
        T("repro.journal.wal", "WalWriter.append", "journal.append_s", after=_wal_bytes),
        T("repro.journal.wal", "WalWriter.sync", "journal.sync_s"),
        T("repro.journal.journal", "Journal.snapshot", "journal.snapshot_s"),
        T(drv, "DyflowOrchestrator.resume_from", "journal.resume_s"),
        T("repro.journal.resume", "read_journal", "journal.resume_s", after=_records_read),
        T(drv, "DyflowOrchestrator.finalize_telemetry", "telemetry.self_s"),
        T("repro.observability.health", "HealthEngine.tick", "observability.health_s",
          after=_health_alerts),
        T("repro.observability.watch", "WatchStream.emit", "observability.fleet_s"),
        T("repro.observability.watch", "WatchStream.sync", "observability.fleet_s"),
        T("repro.campaign.service", "CampaignService.submit", "campaign.submit_s"),
        T("repro.campaign.service", "CampaignService.run_pending", "campaign.dispatch_s",
          after=_cell_records),
        T("repro.campaign.registry", "AdmissionController.next_tenant", "campaign.admission_s"),
        T("repro.campaign.registry", "AdmissionController.pop_cell", "campaign.admission_s"),
        T("repro.campaign.arbiter", "MachineArbiter.try_lease", "campaign.lease_s"),
        T("repro.campaign.arbiter", "MachineArbiter.release", "campaign.lease_s"),
        T("repro.campaign.executor", "SupervisedExecutor.run", "campaign.executor_s"),
        T("repro.campaign.service", "run_cell_scenario", "campaign.cell_body_s"),
    ]
    out += [
        T(rm, f"ResourceManager.{m}", "cluster.rm_self_s")
        for m in ("free", "assign", "assign_set", "grow", "shrink", "release", "plan_placement")
    ]
    out += [
        T(tel, f"Tracer.{m}", "telemetry.self_s")
        for m in ("span", "start_span", "end_span", "add_span", "point")
    ]
    out += [
        T(fleet, f"FleetHealthEngine.{m}", "observability.fleet_s")
        for m in ("record_cell", "record_rejection", "record_trip", "ingest_alert",
                  "rollup", "state_dict")
    ]
    return tuple(out)


TARGETS = _targets()


class _TracedGen:
    """Generator proxy recording one span per resume.

    Implements the whole generator protocol the engine and ``yield from``
    use -- ``__next__``/``send``/``throw``/``close`` -- so stop signals
    reach the wrapped generator unchanged.
    """

    __slots__ = ("_tr", "_gen", "_nid", "_done")

    def __init__(self, tr: "SpanTracer", gen, nid: int, done: Callable[[Any], None] | None):
        self._tr = tr
        self._gen = gen
        self._nid = nid
        self._done = done

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def close(self):
        return self._resume(self._gen.close)

    def _resume(self, step, *step_args):
        tr = self._tr
        sid = tr.open(self._nid)
        try:
            return step(*step_args)
        except StopIteration as stop:
            done, self._done = self._done, None
            if done is not None:
                tr.ends[sid] = clock()
                done(stop.value)
            raise
        finally:
            tr.close(sid)


def _mark(traced: Callable, fn: Callable) -> Callable:
    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    traced.__perfbench__ = True
    return traced


def _wrap_call(tr: "SpanTracer", fn: Callable, nid: int, before, after) -> Callable:
    if before is None and after is None:

        def traced(*args, **kwargs):
            # tr.open()/tr.close() inlined: this is the hot wrapper.
            parent = tr.cur
            starts = tr.starts
            tr.cur = sid = len(starts)
            tr.nids.append(nid)
            tr.parents.append(parent)
            tr.ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.ends[sid] = clock()
                tr.cur = parent

        return _mark(traced, fn)

    def traced_hooked(*args, **kwargs):
        token = before(tr, args, kwargs) if before is not None else None
        sid = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(sid)
        if after is not None:
            after(tr, token, args, kwargs, result)
        return result

    return _mark(traced_hooked, fn)


def _wrap_gen(tr: "SpanTracer", fn: Callable, nid: int, before, after) -> Callable:
    def traced_gen(*args, **kwargs):
        tr.created[nid] += 1
        token = before(tr, args, kwargs) if before is not None else None
        done = None
        if after is not None:
            def done(value):
                after(tr, token, args, kwargs, value)
        return _TracedGen(tr, fn(*args, **kwargs), nid, done)

    return _mark(traced_gen, fn)


class SpanTracer:
    """Install/uninstall the wrappers; collect one iteration's spans."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names = [UNATTRIBUTED] + [t.qualname for t in targets]
        self.buckets = [UNATTRIBUTED] + [t.bucket for t in targets]
        self._restore: list[tuple[Any, str, Any]] = []
        self._reset()

    def _reset(self) -> None:
        # Spans live in four flat columns indexed by span id.  Scalars in
        # flat lists are invisible to the cyclic GC; one list object per
        # span would make every collection inside the traced run slower.
        self.nids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cur = -1
        self.counts: Counter = Counter()
        self.created: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.memo: dict[Any, dict[str, int]] = {}
        self.tick_t0: float | None = None

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions: dict[int, tuple[str, Callable, Callable]] = {}
        for nid, target in enumerate(self.targets, start=1):
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            wrap = _wrap_gen if target.gen else _wrap_call
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
                    raise TypeError(f"{target.qualname} is not a plain method")
                setattr(owner, attr, wrap(self, raw, nid, target.before, target.after))
                self._restore.append((owner, attr, raw))
            else:
                raw = getattr(module, attr)
                functions[id(raw)] = (attr, raw, wrap(self, raw, nid, target.before, target.after))
        # A module-level function is bound into every namespace that
        # imported it (`from repro.xmlspec import parse_dyflow_xml`), so
        # each of those bindings is swapped, not just the defining one.
        for module in _scoped_modules():
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, hit[2])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; returns any wrapper left behind."""
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        owners = {owner for owner, _, _ in self._restore if isinstance(owner, type)}
        self._restore = []
        leaks = []
        for holder in list(_scoped_modules()) + sorted(owners, key=lambda c: c.__qualname__):
            for attr, value in list(vars(holder).items()):
                if getattr(value, "__perfbench__", False):
                    leaks.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        return leaks

    # -- one iteration ------------------------------------------------------------
    def open(self, nid: int) -> int:
        """Start a span of *nid* under the current one; returns its id."""
        parent = self.cur
        self.cur = sid = len(self.starts)
        self.nids.append(nid)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.starts.append(clock())
        return sid

    def close(self, sid: int) -> None:
        if not self.ends[sid]:
            self.ends[sid] = clock()
        self.cur = self.parents[sid]

    def begin(self) -> None:
        """Open the root span; everything outside a wrapped call lands here."""
        self._reset()
        self.open(0)

    def end(self) -> dict[str, float]:
        """Close the root span and fold the spans into per-layer numbers."""
        self.close(0)
        folded = self._fold()
        self.memo.clear()  # the stages keep a whole scenario's object graph alive
        return folded

    def _fold(self) -> dict[str, float]:
        names, buckets = self.names, self.buckets
        spans = list(zip(self.nids, self.starts, self.ends, self.parents))
        self_by_name = [0.0] * len(names)
        incl_by_name = [0.0] * len(names)
        calls = [0] * len(names)
        replay_nid = names.index("read_journal")
        replay_s = 0.0
        child = [0.0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for sid, (nid, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            own = dur - child[sid]
            calls[nid] += 1
            incl_by_name[nid] += dur
            if nid == replay_nid and self._under(parent, "campaign."):
                replay_s += own
            else:
                self_by_name[nid] += own
        self_s: dict[str, float] = defaultdict(float)
        for nid, bucket in enumerate(buckets):
            self_s[bucket] += self_by_name[nid]
        self_s["campaign.replay_s"] += replay_s
        n = {name: calls[i] for i, name in enumerate(names)}
        for nid, made in self.created.items():
            n[names[nid]] = made  # generators: creations, not resumes
        c = self.counts
        wall = self.ends[0] - self.starts[0]
        run_incl = incl_by_name[names.index("SimEngine.run")]
        hits = sum(m["hits"] for m in self.memo.values())
        lookups = hits + sum(m["misses"] for m in self.memo.values())
        sent = n["FabricLink.send"]
        asked = c["arbitrate_with_suggestions"]
        out = {k: v for k, v in self_s.items() if k != UNATTRIBUTED}
        out.update({
            "xmlspec.bytes": c["xmlspec.bytes"],
            "lint.diagnostics": c["lint.diagnostics"],
            "runtime.ticks": n["ArbitrationStage.arbitrate"],
            "runtime.tick_ms_p50": percentile(self.samples["tick_ms"], 50),
            "runtime.tick_ms_p99": percentile(self.samples["tick_ms"], 99),
            "sim.events": c["sim.events"],
            "sim.events_per_s": c["sim.events"] / run_incl if run_incl else 0.0,
            "wms.starts": n["Savanna.start_task_with_resources"],
            "wms.stops": n["Savanna.stop_task"],
            "cluster.rm_calls": sum(v for k, v in n.items() if k.startswith("ResourceManager.")),
            "apps.steps": n["IterativeApp.step_time"],
            "staging.scans": n["SimFilesystem.scan"],
            "core.monitor.envelopes": n["MonitorServer.receive"],
            "core.monitor.updates": c["core.monitor.updates"],
            "core.monitor.dropped": c["core.monitor.dropped"],
            "fabric.sent": sent,
            "fabric.retransmits": c["fabric.retransmits"],
            "fabric.delivered_ratio": c["fabric.acked"] / sent if sent else 0.0,
            "core.decision.updates_seen": c["core.decision.updates_seen"],
            "core.decision.suggestions": c["core.decision.suggestions"],
            "core.decision.gated": c["core.decision.gated"],
            "core.arbitration.plans": c["core.arbitration.plans"],
            "core.arbitration.plan_ratio": c["core.arbitration.plans"] / asked if asked else 0.0,
            "core.arbitration.memo_hit_ratio": hits / lookups if lookups else 0.0,
            "core.actuation.ops": c["core.actuation.ops"],
            "core.actuation.response_sim_s_p50": percentile(self.samples["response_sim_s"], 50),
            "core.actuation.response_sim_s_p95": percentile(self.samples["response_sim_s"], 95),
            "journal.appends": n["Journal.append"],
            "journal.bytes": c["journal.bytes"],
            "journal.fsyncs": n["WalWriter.sync"],
            "journal.replayed_records": c["journal.replayed_records"],
            "telemetry.spans": n["Tracer.start_span"] + n["Tracer.add_span"],
            "observability.alerts": c["observability.alerts"] + n["FleetHealthEngine.ingest_alert"],
            "campaign.cells": c["campaign.cells"],
            "campaign.cells_per_s": c["campaign.cells"] / wall if wall else 0.0,
            "campaign.retries": c["campaign.retries"],
            "campaign.poisoned": c["campaign.poisoned"],
            "campaign.replayed": c["campaign.replayed"],
            "host.unattributed_frac": self_s[UNATTRIBUTED] / wall if wall else 0.0,
        })
        out["traced_wall_s"] = wall
        return out

    def _under(self, sid: int, prefix: str) -> bool:
        while sid >= 0:
            if self.buckets[self.nids[sid]].startswith(prefix):
                return True
            sid = self.parents[sid]
        return False

    def dump_spans(self, path: str) -> None:
        """Write the last iteration's spans, one JSON array per line."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for sid, nid in enumerate(self.nids):
                fh.write(json.dumps([sid, self.parents[sid], self.buckets[nid], self.names[nid],
                                     self.starts[sid], self.ends[sid]]))
                fh.write("\n")


def _scoped_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".", 1)[0] in _PATCH_SCOPES:
            yield module
