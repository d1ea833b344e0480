"""Run reports: assembly, rendering, the ``report`` CLI, and one report path."""

import hashlib
import json

import pytest

from repro.cluster.allocation import ResourceSet
from repro.core.actions import Outcome
from repro.experiments import run_gray_scott_experiment
from repro.journal import JournalSpec
from repro.observability import AnomalySpec, ObservabilitySpec, SloSpec
from repro.observability.analysis import SpanView
from repro.observability.explain import explain
from repro.observability.explain import main as explain_main
from repro.observability.report import (
    REPORT_SCHEMA,
    TOP_N,
    build_report,
    main,
    read_jsonl,
    render_json,
    render_markdown,
    report_from_jsonl,
)
from repro.observability.slo import HealthAlert
from repro.sim.trace import Span
from repro.telemetry import TelemetrySpec


def span_record(name, span_id, start, end, parent=None, category="loop"):
    return {
        "kind": "span", "time": end, "name": name, "category": category,
        "span_id": span_id, "parent_id": parent, "start": start, "end": end,
    }


def point_record(time, name, **attrs):
    return {"kind": "point", "time": time, "name": name,
            "category": "wms", "attrs": attrs}


def sample_records():
    alert = HealthAlert(
        time=6.0, source="slo:plan.response.p95", kind="firing",
        severity="warning", value=50.0, threshold=10.0, message="violated",
    )
    return [
        span_record("loop.tick", 1, 0.0, 10.0),
        span_record("stage.monitor", 2, 0.0, 6.0, parent=1, category="monitor"),
        span_record("stage.decision", 3, 6.0, 8.0, parent=1, category="decision"),
        {"kind": "span", "time": 0.0, "name": "open", "category": "loop",
         "span_id": 9, "parent_id": None, "start": 0.0, "end": None},
        point_record(0.0, "run.allocation", nodes={"n1": 4}),
        Span("Sim", "Sim-0", 0.0, 10.0, resources=ResourceSet({"n1": 4})).to_record(),
        alert.to_record(),
        {"kind": "metrics", "time": 10.0, "seq": 0,
         "metrics": {"plans.created": {"type": "counter", "value": 2.0},
                     "journal.append.latency": {"type": "histogram", "count": 7}}},
    ]


class TestBuildReport:
    def test_assembles_every_section(self):
        views = [
            SpanView("loop.tick", "loop", 1, None, 0.0, 10.0),
            SpanView("stage.monitor", "monitor", 2, 1, 0.0, 6.0),
        ]
        report = build_report(views, meta={"workflow": "WF"})
        assert report["schema"] == REPORT_SCHEMA
        assert report["meta"] == {"workflow": "WF"}
        assert [e["name"] for e in report["critical_path"]["entries"]] == [
            "loop.tick", "stage.monitor",
        ]
        assert report["critical_path"]["total"] == 10.0
        assert report["utilization"] is None
        assert report["alerts"] == []

    def test_wall_clock_metric_families_are_excluded(self):
        report = build_report(
            [], metrics={"journal.append.latency": {"count": 3},
                         "plans.created": {"value": 1.0}},
        )
        assert "journal.append.latency" not in report["metrics"]
        assert report["metrics"]["plans.created"] == {"value": 1.0}


class TestReportFromJsonl:
    def test_rebuilds_all_sections_from_records(self):
        report = report_from_jsonl(sample_records())
        names = [e["name"] for e in report["critical_path"]["entries"]]
        assert names == ["loop.tick", "stage.monitor"]
        assert report["utilization"]["total_cores"] == 4
        assert report["utilization"]["aggregate"] == 1.0
        assert [a["source"] for a in report["alerts"]] == ["slo:plan.response.p95"]
        assert "plans.created" in report["metrics"]
        assert "journal.append.latency" not in report["metrics"]
        # The open span contributes nothing to the analysis.
        assert all("open" != s["name"] for s in report["slow_spans"])

    def test_a_live_alert_and_its_jsonl_line_give_one_row(self):
        """Alerts are read in place; an int threshold (``SloSpec(threshold=60)``)
        still reads as the float its JSONL line reads back as."""
        alert = HealthAlert(time=6, source="slo:x.p95", kind="firing",
                            severity="warning", value=50, threshold=60, message="m")
        line = json.loads(json.dumps(alert.to_record()))
        live, flushed = report_from_jsonl([alert]), report_from_jsonl([line])
        assert render_json(live) == render_json(flushed)
        assert live["alerts"][0]["threshold"] == 60.0
        assert isinstance(live["alerts"][0]["threshold"], float)

    def test_without_allocation_events_utilization_is_absent(self):
        records = [span_record("loop.tick", 1, 0.0, 10.0)]
        assert report_from_jsonl(records)["utilization"] is None


class TestRendering:
    def test_markdown_is_deterministic_and_complete(self):
        report = report_from_jsonl(sample_records(), meta={"workflow": "WF"})
        text = render_markdown(report)
        assert text == render_markdown(report_from_jsonl(sample_records(),
                                                         meta={"workflow": "WF"}))
        for heading in ("# DYFLOW run report", "## Critical path",
                        "## Bottlenecks", "## Utilization",
                        "## Alert timeline", "## Slowest spans"):
            assert heading in text
        assert "slo:plan.response.p95" in text

    def test_empty_report_renders_placeholders(self):
        text = render_markdown(report_from_jsonl([]))
        assert "No closed spans recorded." in text
        assert "No allocation events recorded." in text
        assert "No health alerts." in text

    def test_json_rendering_is_stable(self):
        report = report_from_jsonl(sample_records())
        assert json.loads(render_json(report)) == report
        assert render_json(report).endswith("\n")


class TestCli:
    def write_log(self, tmp_path, records):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_writes_markdown_and_json_outputs(self, tmp_path):
        log = self.write_log(tmp_path, sample_records())
        md, js = str(tmp_path / "report.md"), str(tmp_path / "report.json")
        assert main([log, "-o", md, "--json", js]) == 0
        assert "# DYFLOW run report" in open(md).read()
        doc = json.load(open(js))
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["meta"]["source"] == log

    def test_stdout_formats(self, tmp_path, capsys):
        log = self.write_log(tmp_path, sample_records())
        assert main([log]) == 0
        assert "## Critical path" in capsys.readouterr().out
        assert main([log, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == REPORT_SCHEMA

    def test_require_critical_path_gates_empty_runs(self, tmp_path, capsys):
        empty = self.write_log(tmp_path, [point_record(0.0, "noop")])
        assert main([empty, "--require-critical-path"]) == 1
        assert "empty critical path" in capsys.readouterr().err
        full = self.write_log(tmp_path, sample_records())
        capsys.readouterr()
        assert main([full, "--require-critical-path"]) == 0

    def test_top_limits_table_sizes(self, tmp_path, capsys):
        records = [span_record(f"s{i}", i + 1, 0.0, float(i + 1))
                   for i in range(8)]
        log = self.write_log(tmp_path, records)
        main([log, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["slow_spans"]) == TOP_N == 5
        assert len(doc["bottlenecks"]) == TOP_N


# perfbench's gs_full_stack configuration: chaos fabric, SLO + anomaly
# detector, a WAL journal and two controller crashes, one in the partition.
CHAOS_XML = """
  <resilience>
    <network latency="0.2" jitter="0.1" drop-prob="0.10" dup-prob="0.05"
             reorder-prob="0.05" ack-timeout="2.0" max-retransmits="5"
             ingress-capacity="64" drain-per-tick="32"
             stale-after="60.0" degrade-after="3" recover-after="3">
      <partition start="600.0" duration="30.0"/>
    </network>
  </resilience>"""
QUARANTINE_XML = """
  <resilience>
    <retry max-retries="3"/>
    <quarantine failures="1" window="600" cooldown="400"/>
    <faults node-mtbf="600" node-repair-time="300" task-crash-mtbf="2000"/>
  </resilience>"""


# sha256 of each run's finalize report.  A change to how the report is
# computed must leave these be; regenerate them only for an intended change
# to the document (print ``hashlib.sha256(path.read_bytes()).hexdigest()``
# for both files of each run below).
REPORT_SHA256 = {
    "full-stack": {
        "report.json": "cf93c8cb6733b8d7b0f99b5a2d6612aba4ca770ef938dc26c9519be5dbf05fe0",
        "report.md": "44adb6b6f158f90eeb09628e57dce7d6cfad077dd6cfb8fb4a13ea78529c78cd",
    },
    "plain": {
        "report.json": "914846edafac6154485283c7e54328ad6657bcae2aab02c255d37ae08d52bb26",
        "report.md": "9d1f1a4a149f4b8c89074e21107c0657a31a72d0c50f8b50c7465d3a8e944738",
    },
    "quarantine": {
        "report.json": "e3c331ac54a6604f5f655a514ba8770013b6798ddc8d70bba30c6a80184b15ee",
        "report.md": "a85f55edf6b6b3a9593797ba1e7246d2fd4dc919a4c08647d2799d20bc54383f",
    },
}


class TestOneReportPath:
    """The report a runtime writes at finalize is the report the CLI rebuilds
    from the JSONL log that same finalize flushed — byte for byte."""

    RUNS = {
        "plain": dict(seed=1),
        "full-stack": dict(
            seed=1, xml_extra=CHAOS_XML, crash_times=(300.0, 615.0),
            slos=(SloSpec(metric="plan.response", stat="p95", op="LT", threshold=60.0),),
            anomalies=(AnomalySpec(metric="stage.monitor.latency", stat="p95",
                                   window=20, z=4.0),),
        ),
        "quarantine": dict(seed=4, xml_extra=QUARANTINE_XML),
    }

    @pytest.fixture(scope="class", params=sorted(RUNS))
    def run(self, request, tmp_path_factory):
        kw = dict(self.RUNS[request.param])
        base = tmp_path_factory.mktemp(request.param)
        if "crash_times" in kw:
            kw["journal"] = JournalSpec(dir=str(base / "wal"), fsync="off")
        obs = ObservabilitySpec(
            eval_every=5.0, slos=kw.pop("slos", ()), anomalies=kw.pop("anomalies", ()),
            report_path=str(base / "report.md"), report_json_path=str(base / "report.json"),
        )
        result = run_gray_scott_experiment(
            "summit", telemetry=TelemetrySpec(jsonl_path=str(base / "events.jsonl")),
            observability=obs, **kw,
        )
        return request.param, result, base

    def test_finalize_report_equals_the_cli_rebuild(self, run):
        name, result, base = run
        if name == "full-stack":
            assert result.meta["crashes"] == [300.0, 615.0]
        rebuilt = report_from_jsonl(
            read_jsonl(str(base / "events.jsonl")),
            meta={"workflow": result.launcher.workflow.workflow_id},
        )
        assert (base / "report.md").read_text() == render_markdown(rebuilt)
        assert (base / "report.json").read_text() == render_json(rebuilt)
        assert rebuilt["metrics"] and rebuilt["utilization"] is not None

    def test_the_report_bytes_are_pinned(self, run):
        """Each run's report, byte for byte: the full-stack one is the
        seed-1 summit crash run perfbench's ``gs_full_stack`` times."""
        name, _result, base = run
        digests = {f: hashlib.sha256((base / f).read_bytes()).hexdigest()
                   for f in ("report.json", "report.md")}
        assert digests == REPORT_SHA256[name]

    def test_the_log_ends_with_the_finalize_metrics_record(self, run):
        _name, result, base = run
        records = read_jsonl(str(base / "events.jsonl"))
        assert records[-1]["kind"] == "metrics"
        assert records[-1]["time"] == json.loads((base / "report.json").read_text())[
            "utilization"]["end"]
        assert sum(r["kind"] == "point" and r["name"] == "run.allocation"
                   for r in records) == 1

    def test_explain_walks_the_flushed_log_from_update_to_task_span(self, run, capsys):
        """``explain`` reads the JSONL log alone: the first adjustment's
        update, outcome, plan and the Isosurface spans it stopped and
        started; ``--why-not`` lists every refusal the run log holds."""
        _name, result, base = run
        log = str(base / "events.jsonl")
        plan = next(p for p in result.plans if any("INC_ON_PACE" in a for a in p.accepted))
        chain = explain(read_jsonl(log), "Isosurface", plan.created)
        outcome, update = chain["outcome"], chain["update"]
        assert (outcome["policy_id"], outcome["reason"], outcome["plan_id"]) == (
            "INC_ON_PACE", "granted", plan.plan_id)
        assert (update["sensor_id"], update["task"], update["time"]) == (
            "PACE", "Isosurface", outcome["trigger"])
        assert chain["started"]["meta"]["nprocs"] > chain["stopped"]["meta"]["nprocs"]
        assert explain_main([log, "--task", "Isosurface", "--at", str(plan.created)]) == 0
        out = capsys.readouterr().out
        assert "INC_ON_PACE:ADDCPU:Isosurface granted" in out and f"plan:{plan.plan_id}" in out
        assert explain_main([log, "--task", "Isosurface", "--at", "1e9", "--why-not"]) == 0
        refused = [o for o in result.launcher.log.of_type(Outcome)
                   if o.target == "Isosurface" and o.reason != "granted"]
        assert refused and len(capsys.readouterr().out.splitlines()) == len(refused)
        assert explain_main([log, "--task", "Isosurface", "--at", "0"]) == 1
