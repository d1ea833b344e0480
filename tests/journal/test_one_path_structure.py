"""One path per job from envelope to op, from fleet state to WAL, and
from a run's records to its report.

AST walks over ``src/repro`` with the helpers of
``tests/journal/test_ledger_structure.py``: a second envelope encoder, a
second copy of the actuation op loop, a second step-time sampling path, a
second barrier protocol, a driver with its own barrier or snapshot, a
barrier that signs a state to find what it writes, a fleet history
journaled beside its watch stream, a second OpenMetrics renderer, a telemetry
handoff with no reader, a run record stored outside the run log, a
second report path, a second snapshot pointer, a snapshot that carries
run output, a Monitor round that polls every binding, a paper claim
written outside the report, a suggestion that ends without a reason,
a link or chaos drop draw that brings full generator states back into
the barrier, or a placement that walks every node fails here by name.
"""

import ast
import pathlib
import re

from repro.journal import RECORD_KINDS
from tests.journal.test_ledger_structure import identifiers, modules, modules_where

GONE = {
    "_encode_update", "_UPDATE_TOKENS", "codec_stats",
    "VectorizedStepModel", "nominal_block",
    # the worker-telemetry handoff nothing fed or read
    "workertel", "worker_registry", "telemetry_root", "worker_metrics",
    "flush_worker_telemetry", "merge_worker_telemetry", "read_worker_telemetry",
    "_merge_telemetry", "_flush_telemetry",
    # the second run-record store and the live-object report path
    "JsonlEventLog", "report_from_run", "utilization_from_launcher",
    # the snapshot pointer file and the snapshot sections no recovery read
    "SnapshotStore", "CHECKPOINT_FILE", "snapshot_meta", "retry_audit",
    # helpers nothing called, and the Decision stage's unsent envelope
    "unsubscribe_end", "active_tasks", "running_jobs", "has_store", "set_sink",
    "acquires_resources", "releases_resources", "event_to_response",
    "count_at_or_above", "last_produced", "total_mass", "tick_envelope",
    # the tracer's root-span stride and its lint auto-fix
    "_keep_root", "_roots_seen", "_roots_kept", "_fix_telemetry_sample",
    # the metrics snapshotter nothing read, and the hidden per-sample delivery knob
    "MetricsSnapshotter", "snapshotter", "maybe_snapshot", "batch_deliveries",
    # the ad-hoc "why" counters the Reason count replaced, and their metrics
    "discarded_batches", "waiting_unchanged", "suggestions_gated",
    "arbitration.grants", "arbitration.denials", "arbitration.gated_batches",
    "arbitration.waiting_unchanged", "decision.suggestions_gated",
    # the engine's slot-indexed queue and its second copy of the event loop
    "_Slot", "SimEngine.step",
    # the threaded driver's own Arbitration, Actuation, retry, watchdog and records
    "ThreadedDyflow._apply", "_maybe_retry", "_retry_start", "_incarnations", "_instances",
    "ThreadedDyflow.nworkers", "applied_actions", "watchdog_kills", "ThreadedDyflow._watchdog_loop",
    "_start_task", "_stop_task", "_on_instance_exit", "_journal_append", "_retries_used",
    "_completed_tasks", "_resume_steps", "watchdog_spec", "hub_lock", "_journal_lock",
    "_state_lock", "last_progress", "ThreadedDyflow._health_aggregates",
    "DyflowOrchestrator._health_aggregates", "DyflowOrchestrator._on_task_start",
    "DyflowOrchestrator._on_plan_done", "tasks.running", "workers.total", "retries.exhausted",
    # the finished-plans list Actuation kept and nothing read
    "executed_plans",
    # the vouched paths of a signature diff, which unit revisions replaced
    "take_unchanged", "_trie", "vouched", "DyflowOrchestrator._barrier_state",
    # the live launcher's second heartbeat poller
    "LiveLauncher._watch",
    # the fleet rollup restored from a barrier instead of folded from its stream
    "FleetHealthEngine.load_state_dict", "CampaignService._fleet_state",
    # a second run store beside perfbench and the committed BENCH artifacts
    "RunStore", "RunRecord", "flatten_metrics", "load_record",
}

BENCHMARKS = pathlib.Path(__file__).parents[2] / "benchmarks"
#: The figure, table and ablation scripts whose claims are report rows now.
PAPER_SCRIPTS = [
    "bench_fig1_throughput.py", "bench_fig6_xgc_gantt.py", "bench_fig8_gs_gantt.py",
    "bench_fig9_gs_pace.py", "bench_fig11_lammps_failure.py",
    "bench_table1_xgc_config.py", "bench_table2_gs_config.py",
    "bench_table3_lammps_config.py", "bench_sec46_cost_analysis.py",
    "bench_ablation_graceful.py", "bench_ablation_history.py",
    "bench_ablation_predictive.py", "bench_ablation_reconfig.py",
    "bench_ablation_settle.py", "bench_ablation_victims.py",
]


def actuation_stage():
    (cls,) = [
        n for n in ast.walk(modules()["core/actuation.py"])
        if isinstance(n, ast.ClassDef) and n.name == "ActuationStage"
    ]
    return cls


def method_calls(func):
    """Names of the ``self.<name>(...)`` calls inside *func*."""
    return {
        n.func.attr for n in ast.walk(func)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name) and n.func.value.id == "self"
    }


def test_no_removed_fast_path_identifier_remains():
    def names_one(node):
        # A string constant too: export tables (`__all__`, the lazy
        # `repro.api` map) spell names as strings.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in GONE
        if isinstance(node, ast.arg):
            return node.arg in GONE
        names = set(identifiers(node))
        if isinstance(node, ast.ClassDef):  # "Class.method" entries
            names |= {f"{node.name}.{n.name}" for n in node.body if isinstance(n, ast.FunctionDef)}
        return bool(GONE & names)

    assert modules_where(names_one) == []
    assert "campaign/workertel.py" not in modules()
    assert "telemetry/events.py" not in modules()
    assert "observability/snapshot.py" not in modules()
    assert "observability/store.py" not in modules()


def test_actuation_has_one_op_loop_and_one_failure_handler():
    nodes = list(ast.walk(actuation_stage()))
    loops = [
        n for n in nodes
        if isinstance(n, ast.For) and ast.unparse(n.iter) == "plan.ordered_ops()"
    ]
    handlers = [
        n for n in nodes
        if isinstance(n, ast.ExceptHandler) and n.type is not None
        and ast.unparse(n.type) == "(ActuationError, AllocationError, LaunchError)"
    ]
    assert len(loops) == 1 and len(handlers) == 1
    assert len([n for n in nodes if isinstance(n, (ast.For, ast.While))]) == 2  # + _compensate's


def test_execute_and_resume_plan_share_the_loop_without_calling_each_other():
    # perfbench wraps both public methods: one calling the other would
    # count core.actuation.ops twice.
    methods = {n.name: n for n in actuation_stage().body if isinstance(n, ast.FunctionDef)}
    for name in ("execute", "resume_plan"):
        calls = method_calls(methods[name])
        assert calls == {"_run_plan"}, (name, calls)
    assert not {"execute", "resume_plan"} & method_calls(methods["_run_plan"])


def test_envelopes_are_encoded_in_one_place():
    def encodes(node):
        return (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("encode", "dumps", "iterencode")
        )

    tree = modules()["util/jsonmsg.py"]
    calls = [ast.unparse(n.func) for n in ast.walk(tree) if encodes(n)]
    assert calls == ["_ENC.encode"]
    # ... and nothing assembles JSON text by hand beside it.
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)]
    assert "join" not in {name for n in ast.walk(tree) for name in identifiers(n)}


def test_step_times_are_sampled_in_one_place():
    tree = modules()["apps/scaling.py"]
    owners = [
        cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "sample"
    ]
    assert owners == ["StepTimeModel"]


def test_barriers_are_written_and_folded_in_one_place():
    """``Journal.barrier`` writes them, ``read_journal`` folds them — for the
    orchestrator and for the campaign fleet plane alike."""
    assert "fleet-barrier" not in RECORD_KINDS

    def appends_a_barrier(node):
        return (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append" and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in ("barrier", "fleet-barrier")
        )

    assert modules_where(appends_a_barrier) == ["journal/journal.py"]
    writers = {
        module for module, tree in modules().items() for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "barrier"
    }
    assert writers == {"campaign/service.py", "runtime/core.py"}
    # An orchestrator snapshot is written beside its barrier, for both runtimes.
    snapshotters = {
        module for module, tree in modules().items() for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "snapshot" and n.args
    }
    assert snapshotters == {"runtime/core.py"}
    # The fold: only read_journal applies a delta, and only the ledger and
    # the runtime hand its result on.
    assert modules_where(lambda n: "apply_delta" in identifiers(n)) == [
        "journal/delta.py", "journal/resume.py",
    ]
    # No reader picks barrier records out of a record list by hand.
    def compares_a_kind_to_barrier(node):
        return (
            isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq)
            and any(
                isinstance(c, ast.Constant) and c.value in ("barrier", "fleet-barrier")
                for c in [node.left, *node.comparators]
            )
        )

    assert modules_where(compares_a_kind_to_barrier) == [
        "journal/resume.py", "runtime/core.py",  # the resume replays decision ticks
    ]


def test_the_runtime_signs_no_state():
    """A barrier learns what changed from unit revisions alone: nothing
    under ``src/repro`` signs or diffs a state to find it."""
    signs = {"SignedState", "marshal", "state_delta", "_signature", "_signed"}
    assert modules_where(lambda n: bool(signs & set(identifiers(n)))) == []


def test_the_fleet_barrier_journals_no_history():
    """The watch stream is the fleet plane's history: the barrier names
    neither the rollup engine nor the alert lists, which are its fold."""
    (barrier,) = [
        node for node in ast.walk(modules()["campaign/service.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_fleet_barrier"
    ]
    names = {name for node in ast.walk(barrier) for name in identifiers(node)}
    assert {"breaker", "_slo", "_fleet_slo", "barrier"} <= names
    assert not names & {"fleet", "alerts", "rollup"}


def appends_kind(kind):
    def appends(node):
        return (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append" and node.args
            and isinstance(node.args[0], ast.Constant) and node.args[0].value == kind
        )

    return appends


def test_a_snapshot_is_one_file_and_nothing_points_at_it():
    """``journal/snapshot.py`` writes and finds snapshot files; no record
    refers to one, and no launcher-side state is restored from one."""
    assert modules_where(appends_kind("snapshot-ref")) == []
    assert "snapshot-ref" in RECORD_KINDS  # older journals still read
    assert modules_where(lambda n: "snapshot_path" in identifiers(n)) == ["journal/snapshot.py"]
    assert modules_where(
        lambda n: {"write_snapshot", "load_latest_snapshot"} & set(identifiers(n))
    ) == ["journal/journal.py", "journal/resume.py", "journal/snapshot.py"]
    (rm,) = [
        n for n in ast.walk(modules()["cluster/resource_manager.py"])
        if isinstance(n, ast.ClassDef) and n.name == "ResourceManager"
    ]
    assert "load_state_dict" not in {f.name for f in rm.body if isinstance(f, ast.FunctionDef)}


def test_a_snapshot_carries_no_run_output():
    """The metric history and the finished plans are the launcher's run
    output, which survives a crash: the snapshot and the server state it
    journals neither carry nor restore them, so a snapshot's size follows
    the controller, not the length of the run."""
    def method(module, cls_name, name):
        (cls,) = [
            n for n in ast.walk(modules()[module])
            if isinstance(n, ast.ClassDef) and n.name == cls_name
        ]
        return functions(cls)[name]

    readers = {
        "_snapshot_state": method("runtime/core.py", "RuntimeCore", "_snapshot_state"),
        "MonitorServer.state_dict": method("core/monitor.py", "MonitorServer", "state_dict"),
        "MonitorServer.load_state_dict": method(
            "core/monitor.py", "MonitorServer", "load_state_dict"
        ),
    }
    carried = {
        name: sorted(
            {ref for n in ast.walk(fn) for ref in identifiers(n)} & {"history", "output"}
            | {
                ast.unparse(n) for n in ast.walk(fn)
                if isinstance(n, ast.Attribute) and n.attr == "plans"
            }
        )
        for name, fn in readers.items()
    }
    assert carried == {name: [] for name in readers}


def test_the_journal_writes_its_own_meta_record():
    """``Journal.open`` writes ``meta`` with the spec; its callers hand it
    their identity fields instead of appending a second one."""
    assert modules_where(appends_kind("meta")) == ["journal/journal.py"]


def skeletons(tree):
    """Every f-string of *tree* with its ``{...}`` fields blanked to ``{}``."""
    return [
        "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
        for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
    ]


def test_openmetrics_line_formats_exist_once():
    """Both renderers go through one family loop, so each sample-line
    template is spelled once (the parser's suffix tables are not f-strings)."""
    tree = modules()["observability/openmetrics.py"]
    templates = skeletons(tree)
    for pattern in (
        r"# TYPE \{\} histogram", r"# TYPE \{\} counter", r"\{\}_total\{\} \{\}",
        r'\{\}_bucket\{\}le="\{\}"\} \{\}', r"\{\}_count\{\} \{\}", r"\{\}_sum\{\} \{\}",
        r'\{\}_quantile\{\}quantile="\{\}"\} \{\}',
    ):
        assert len([t for t in templates if re.fullmatch(pattern, t)]) == 1, pattern
    loops = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn) if isinstance(n, ast.Call)
        and ast.unparse(n.func).endswith((".counters", ".gauges", ".histograms"))
    ]
    assert set(loops) == {"_render_families"}
    for name in ("render_openmetrics", "render_labeled_openmetrics"):
        (fn,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
        calls = {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
        assert "_render_families" in calls, name


def functions(tree):
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def calls_in(func):
    return {ast.unparse(n.func) for n in ast.walk(func) if isinstance(n, ast.Call)}


def tracer_class():
    (cls,) = [
        n for n in ast.walk(modules()["telemetry/tracer.py"])
        if isinstance(n, ast.ClassDef) and n.name == "Tracer"
    ]
    return cls


def class_named(module, name):
    (cls,) = [
        n for n in ast.walk(modules()[module]) if isinstance(n, ast.ClassDef) and n.name == name
    ]
    return cls


def appends_in(cls):
    """(method, target) of every ``<target>.append/extend(...)`` in *cls*."""
    return {
        (fn.name, ast.unparse(n.func.value))
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr in ("append", "extend")
    }


def test_the_run_log_holds_the_one_run_record():
    """A run record — Gantt span or point, telemetry span, point or metrics
    snapshot, metric update, health alert, outcome — is stored by
    ``RunLog.append``/``extend`` and nowhere else: the tracer writes to
    its log, and the stores the log replaced are gone."""
    retired = {"TraceRecorder", "_records", "outcome_counts", "decision_outcomes"}
    found = {
        f"{module}: {name}" for module, tree in modules().items()
        for n in ast.walk(tree) for name in identifiers(n) if name in retired
    }
    assert found == set()
    run_output = class_named("wms/launcher.py", "RunOutput")
    assert [n.target.id for n in run_output.body if isinstance(n, ast.AnnAssign)] == ["plans"]
    log = appends_in(class_named("sim/trace.py", "RunLog"))
    assert {fn for fn, target in log if target == "self._entries"} == {"append", "extend"}
    assert {fn for fn, target in log if target == "self"} == {"open_span", "add_span", "point"}
    tracer = tracer_class()
    stores = {(fn, target) for fn, target in appends_in(tracer) if target != "self._stack()"}
    assert stores == {("end_span", "self.log"), ("add_span", "self.log"), ("record", "self.log")}
    assert "self.record" in calls_in(functions(tracer)["point"])


def test_a_record_becomes_a_jsonl_line_in_one_place():
    def renders_a_line(node):  # compact JSON: one object per line
        return (
            isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
            and any(k.arg == "separators" for k in node.keywords)
        )

    owners = [
        module for module in modules_where(renders_a_line)
        if module.startswith(("telemetry/", "observability/"))
    ]
    # watch.py is the campaign's durable stream, not a run's record.
    assert owners == ["observability/watch.py", "telemetry/tracer.py"]
    flush = functions(tracer_class())["flush"]
    assert [n for n in ast.walk(flush) if renders_a_line(n)]
    assert len([n for n in ast.walk(modules()["telemetry/tracer.py"]) if renders_a_line(n)]) == 1

    def spells_a_span_line(node):
        return isinstance(node, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value == "kind"
            and isinstance(v, ast.Constant) and v.value == "span"
            for k, v in zip(node.keys, node.values)
        )

    assert modules_where(spells_a_span_line) == ["telemetry/tracer.py"]


def test_the_runtime_builds_its_report_the_way_the_cli_does():
    report = modules()["observability/report.py"]
    builders = {c for c in calls_in(functions(report)["main"]) if c.startswith("report_from")}
    assert builders == {"report_from_jsonl"}

    def builds_a_report(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).startswith(
            ("report_from", "build_report", "utilization_from", "build_utilization")
        )

    runtime_calls = {
        ast.unparse(n.func) for module, tree in modules().items()
        if module.startswith("runtime/") for n in ast.walk(tree) if builds_a_report(n)
    }
    assert runtime_calls == builders


def test_a_monitor_round_polls_only_what_changed():
    """``MonitorClient.collect`` walks the woken bindings, not all of them,
    and a stream channel keeps no list of every reader it opened."""
    (collect,) = [
        n for n in ast.walk(modules()["core/monitor.py"])
        if isinstance(n, ast.FunctionDef) and n.name == "collect"
    ]
    walked = [
        {name for sub in ast.walk(n.iter) for name in identifiers(sub)}
        for n in ast.walk(collect) if isinstance(n, (ast.For, ast.comprehension))
    ]
    assert walked and not [w for w in walked if w & {"_bindings", "bindings", "range"}]
    (channel,) = [
        n for n in ast.walk(modules()["staging/stream.py"])
        if isinstance(n, ast.ClassDef) and n.name == "StreamChannel"
    ]
    assert "_readers" not in {name for n in ast.walk(channel) for name in identifiers(n)}


def test_a_paper_claim_is_written_once_as_a_report_row():
    """Every claim of the paper's §4 is a row of ``repro.experiments.report``
    (which EXPERIMENTS.md embeds); no bench script restates one."""
    assert [name for name in PAPER_SCRIPTS if (BENCHMARKS / name).exists()] == []
    paper_constants = [
        f"{path.name}:{target.id}"
        for path in sorted(BENCHMARKS.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("PAPER")
    ]
    assert paper_constants == []



def test_a_suggestion_ends_in_one_reason_rendered_in_one_place():
    """A plan line ``P:ACTION:T`` is spelled once, in ``render_outcome``;
    every op and waiting entry Arbitration plans names a ``Reason`` or the
    asking policy; ``outcome.<reason>`` is counted in one place; and a
    failed op is recorded once, on the plan."""
    tree = modules()["core/arbitration.py"]

    def spells_a_plan_line(node):  # the ":" or ":ACTION:" between two fields
        return isinstance(node, ast.JoinedStr) and any(
            isinstance(v, ast.Constant) and v.value[:1] == v.value[-1:] == ":"
            for v in node.values
        )

    renderers = {
        (module, name) for module in ("core/actions.py", "core/arbitration.py")
        for name, fn in functions(modules()[module]).items()
        if any(spells_a_plan_line(n) for n in ast.walk(fn))
    }
    assert renderers == {("core/actions.py", "render_outcome")}
    reasons = {
        ast.unparse(k.value) for n in ast.walk(tree) if isinstance(n, ast.Call)
        for k in n.keywords if k.arg == "reason"
    }
    passed_on = {"reason", "e.get('reason', '')"}  # a parameter, a journaled value
    assert {r for r in reasons - passed_on if not r.startswith("Reason.")} == {"s.policy_id"}

    def names_an_outcome_metric(node):
        return isinstance(node, ast.Constant) and node.value == "outcome."

    assert modules_where(names_an_outcome_metric) == ["core/actions.py"]
    assert "self.failed_ops" not in {
        ast.unparse(n) for n in ast.walk(actuation_stage()) if isinstance(n, ast.Attribute)
    }


def rng_calls(cls):
    """(method, registry method, first argument) of every ``self.rng.<m>(...)`` in *cls*."""
    return {
        (fn.name, n.func.attr, ast.unparse(n.args[0]) if n.args else None)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and ast.unparse(n.func.value) == "self.rng"
    }


def test_a_random_only_stream_is_drawn_through_rng_random():
    """A link, and the chaos engine's drop sites, draw through
    ``RngRegistry.random`` alone, so their streams are journaled as draw
    counts: a ``stream(...)`` draw there would bring full generator
    states back into every link unit, and nothing else hands those
    streams out either."""
    link = rng_calls(class_named("fabric/link.py", "FabricLink"))
    assert {(fn, method) for fn, method, _arg in link} == {
        ("_u", "random"), ("state_dict", "state_dict"), ("load_state_dict", "load_state_dict"),
    }
    chaos = rng_calls(class_named("resilience/faults.py", "ChaosEngine"))
    drops = {"_drop_staged_step": "'chaos:stage-drop'", "drop_envelope": "'chaos:msg-drop'"}
    assert {call for call in chaos if call[0] in drops} == {
        (fn, "random", name) for fn, name in drops.items()
    }

    def hands_out_a_counted_stream(node):
        return (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "stream" and bool(node.args)
            and any(name in ast.unparse(node.args[0])
                    for name in ("fabric:", "chaos:stage-drop", "chaos:msg-drop"))
        )

    assert modules_where(hands_out_a_counted_stream) == []


#: The methods a placement goes through: the manager's free-pool views and
#: booking calls, the index they read, Arbitration's shadow and Actuation's
#: re-place.
PLACEMENT_METHODS = {
    ("cluster/resource_manager.py", "ResourceManager"): (
        "free", "free_cores", "plan_placement", "assign", "assign_set", "grow",
    ),
    ("cluster/resource_manager.py", "FreeIndex"): (
        "add", "place", "healthy", "healthy_free", "check_free",
    ),
    ("core/arbitration.py", "_Shadow"): ("__init__", "assigned", "_own_index", "release",
                                         "place", "take"),
    ("core/actuation.py", "ActuationStage"): ("_run_op",),
}


def test_a_placement_walks_only_the_nodes_with_free_cores():
    """Every placement — a task start, a grow, Arbitration's shadow,
    Actuation's re-place — goes through ``FreeIndex.place``, which walks
    the nodes with free cores: none of these methods loops over a node
    inventory, and the full-scan ``place_cores`` is gone."""
    walks = []
    for (module, cls), names in PLACEMENT_METHODS.items():
        methods = {
            fn.name: fn for fn in class_named(module, cls).body if isinstance(fn, ast.FunctionDef)
        }
        for name in names:
            for n in ast.walk(methods[name]):
                if isinstance(n, (ast.For, ast.comprehension)) and "nodes" in {
                    ident for sub in ast.walk(n.iter) for ident in identifiers(sub)
                }:
                    walks.append(f"{cls}.{name}: {ast.unparse(n.iter)}")
    assert walks == []
    assert modules_where(lambda node: "place_cores" in identifiers(node)) == []
