"""The metric declarations: every name this benchmark may print.

``BENCHMARK.json`` at the repo root repeats these tables for the driver;
``python -m perfbench --selftest`` fails when the two disagree, so a
metric is added or renamed here and there in the same change.

Host time and simulated time are never mixed: ``kind`` says which one a
number is.  ``host`` values are wall/CPU measurements of this machine and
are compared by bounds; ``exact`` values (counts, simulated seconds,
ratios of counts) are functions of the seed alone and are compared for
equality.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
WORKLOADS = {
    "synth_monitor": (
        "3000 one-process tasks on 8 Monitor clients: launch + Monitor fan-in at scale; "
        "plans, journal, fabric idle"
    ),
    "paper_plain": (
        "six paper scenarios, optional subsystems off: staging scan, apps, cluster, "
        "arbitration; the disabled-path baseline"
    ),
    "gs_full_stack": (
        "Gray-Scott with chaos fabric, WAL journal, telemetry, observability and two "
        "crash/resumes: every optional layer on"
    ),
    "campaign_fleet": (
        "6 tenants x 150 cells through CampaignService with per-tenant WALs and a "
        "mid-run supervisor resume; no orchestrator ticks"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    kind: str  # "host" | "exact"
    doc: str
    # End-to-end only: the share of the baseline median by which the metric
    # may worsen.  The shared 2-vCPU sandbox slows by 1.4-2x for seconds to
    # minutes at a time.  Normalised to the sampled host speed
    # (hostspeed.py), ten runs of one commit still spread by 3-9 %
    # (interquartile range / median), more in a bad hour; a bound has to be
    # three times the spread to mean anything, which puts every timing at
    # the 25 % cap.
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", "host",
           "median wall time of one workload iteration, spec text in -> fingerprint out, "
           "in seconds of the reference host (hostspeed.py)", 0.25),
    Metric("cpu_s", "s", "lower", "host",
           "median user+sys CPU of the same iteration, normalised the same way (differs from "
           "wall_s only where the process waits, e.g. on page-cache writeback)", 0.25),
    Metric("sim_s_per_s", "sim_s/s", "higher", "host",
           "sum of simulated makespans of the timed iterations / sum of their normalised "
           "wall time", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host",
           "ru_maxrss of the workload process after the timed iterations", 0.10),
    Metric("setup_s", "s", "lower", "host",
           "process start -> first timed iteration: imports, input generation, engine "
           "calibration, one warm-up iteration; normalised like wall_s; median of two fresh "
           "processes", 0.25),
)


def _host(name: str, doc: str, unit: str = "s", better: str = "lower") -> Metric:
    return Metric(name, unit, better, "host", doc)


def _exact(name: str, doc: str, unit: str = "count", better: str = "lower") -> Metric:
    return Metric(name, unit, better, "exact", doc)


PER_LAYER = (
    # xmlspec
    _host("xmlspec.parse_s", "self time of parse_dyflow_xml"),
    _exact("xmlspec.bytes", "UTF-8 bytes of spec text parsed", "B"),
    # lint
    _host("lint.verify_s", "self time of verify_spec + preflight_orchestrator"),
    _exact("lint.diagnostics", "diagnostics returned by verify_spec"),
    # runtime
    _host("runtime.configure_s", "self time of configure_orchestrator"),
    _host("runtime.fingerprint_s", "self time of scenario_fingerprint"),
    _exact("runtime.ticks", "control-loop ticks (arbitrate() calls)"),
    _host("runtime.tick_ms_p50", "median host time first collect() -> arbitrate() return", "ms"),
    _host("runtime.tick_ms_p99", "p99 of the same tick window", "ms"),
    # sim
    _host("sim.self_s", "SimEngine.run self time: event loop + unwrapped glue"),
    _exact("sim.events", "events executed inside SimEngine.run"),
    _host("sim.events_per_s", "sim.events / inclusive host time of SimEngine.run", "1/s", "higher"),
    _exact("sim.makespan_s", "sum of simulated makespans of the iteration", "sim_s"),
    # wms
    _host("wms.launch_s", "self time of Savanna.launch_workflow"),
    _host("wms.self_s", "self time of start_task_with_resources + stop_task + all_idle"),
    _exact("wms.starts", "start_task_with_resources calls"),
    _exact("wms.stops", "stop_task calls"),
    # cluster
    _host("cluster.rm_self_s", "self time of the ResourceManager placement/booking calls"),
    _exact("cluster.rm_calls", "those ResourceManager calls"),
    # apps
    _host("apps.self_s", "self time of IterativeApp.run (all resumes) + step_time"),
    _exact("apps.steps", "IterativeApp.step_time calls (timesteps computed)"),
    # staging
    _host("staging.scan_s", "self time of SimFilesystem.scan"),
    _exact("staging.scans", "SimFilesystem.scan calls"),
    # core.monitor
    _host("core.monitor.collect_s", "self time of MonitorClient.collect"),
    _host("core.monitor.restart_s", "self time of MonitorClient.on_task_restart"),
    _host("core.monitor.ingest_s", "self time of MonitorServer.receive/offer/take_ingress"),
    _exact("core.monitor.envelopes", "MonitorServer.receive calls (journal replay included)"),
    _exact("core.monitor.updates", "updates forwarded by receive"),
    _exact("core.monitor.dropped", "envelopes receive filtered out + offers shed"),
    # fabric
    _host("fabric.self_s", "self time of FabricLink.send/poll/on_ack/plan_ack"),
    _exact("fabric.sent", "FabricLink.send calls"),
    _exact("fabric.retransmits", "retransmitted copies poll put on the wire"),
    _exact("fabric.delivered_ratio", "first-time acks / sent", "ratio", "higher"),
    # core.decision
    _host("core.decision.self_s", "self time of DecisionStage.ingest/tick/gate"),
    _exact("core.decision.updates_seen", "updates handed to ingest"),
    _exact("core.decision.suggestions", "suggestions returned by tick"),
    _exact("core.decision.gated", "suggestions removed by gate"),
    # core.arbitration
    _host("core.arbitration.self_s", "self time of ArbitrationStage.arbitrate"),
    _exact("core.arbitration.plans", "plans returned by arbitrate", "count", "higher"),
    _exact("core.arbitration.plan_ratio", "plans / arbitrate calls with >=1 suggestion",
           "ratio", "higher"),
    _exact("core.arbitration.memo_hit_ratio", "placement-memo hits / lookups (memo_stats)",
           "ratio", "higher"),
    # core.actuation
    _host("core.actuation.self_s", "self time of ActuationStage.execute/resume_plan"),
    _exact("core.actuation.ops", "low-level ops of the plans handed to execute"),
    _exact("core.actuation.response_sim_s_p50", "median simulated plan response time", "sim_s"),
    _exact("core.actuation.response_sim_s_p95", "p95 simulated plan response time", "sim_s"),
    # journal
    _host("journal.append_s", "self time of Journal.append + WalWriter.append"),
    _exact("journal.appends", "Journal.append calls"),
    _exact("journal.bytes", "encoded WAL bytes written", "B"),
    _host("journal.snapshot_s", "self time of Journal.snapshot"),
    _host("journal.sync_s", "self time of WalWriter.sync (flush + fsync: disk wait)"),
    _exact("journal.fsyncs", "WalWriter.sync calls"),
    _host("journal.resume_s", "self time of resume_from + read_journal outside campaigns"),
    _exact("journal.replayed_records", "records returned by read_journal"),
    # telemetry
    _host("telemetry.self_s", "self time of Tracer span/point calls + finalize_telemetry"),
    _exact("telemetry.spans", "Tracer.start_span + add_span calls"),
    # observability
    _host("observability.health_s", "self time of HealthEngine.tick"),
    _host("observability.fleet_s", "self time of FleetHealthEngine + WatchStream calls"),
    _exact("observability.alerts", "alerts returned by HealthEngine.tick + fleet ingest_alert"),
    # campaign
    _host("campaign.submit_s", "self time of CampaignService.submit"),
    _host("campaign.dispatch_s", "self time of CampaignService.run_pending (serve loop, barrier)"),
    _host("campaign.admission_s", "self time of AdmissionController.next_tenant/pop_cell"),
    _host("campaign.lease_s", "self time of MachineArbiter.try_lease/release"),
    _host("campaign.executor_s", "self time of SupervisedExecutor.run"),
    _host("campaign.cell_body_s", "self time of run_cell_scenario"),
    _exact("campaign.cells", "cells executed (not replayed)", "count", "higher"),
    _host("campaign.cells_per_s", "campaign.cells / traced iteration wall", "1/s", "higher"),
    _exact("campaign.retries", "failed attempts the executor absorbed"),
    _exact("campaign.poisoned", "executed cells that ended poisoned"),
    _exact("campaign.replayed", "cells answered from the per-tenant WAL ledger"),
    _host("campaign.replay_s", "self time of read_journal under a CampaignService call"),
    # host: these qualify the other numbers
    _host("host.calibration_events_per_s", "bare SimEngine loop rate on this machine", "1/s",
          "higher"),
    _host("host.wall_norm", "untraced wall_s x calibration / 1e6 (cross-machine reading only)",
          "ratio"),
    _host("host.trace_overhead_frac", "traced wall / untraced wall - 1", "ratio"),
    _host("host.unattributed_frac", "traced wall inside no wrapped call / traced wall", "ratio"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
