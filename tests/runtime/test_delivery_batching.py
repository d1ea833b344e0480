"""Batched vs per-sample envelope delivery must be indistinguishable.

The sim driver aggregates same-deliver-time envelope deliveries into one
engine event per (link, tick).  The one-event-per-envelope path is kept
only as this suite's reference, reached by setting
``orch.batch_deliveries = False`` on the constructed orchestrator (it is
not a runtime option).  This suite is the equivalence oracle: on a clean fabric and under drop/dup/reorder faults, the two
modes must produce bit-identical ``scenario_fingerprint``\\ s and
identical MonitorServer ledgers (dedup filter state, received/forwarded
counts, last-seen times, backpressure counters).
"""

import math

import pytest

from repro.cluster import BatchScheduler, summit
from repro.experiments.runner import execute_scenario
from repro.experiments.synthetic import (
    SyntheticConfig,
    build_synthetic_orchestrator,
    build_synthetic_workflow,
)
from repro.fabric import NetworkSpec
from repro.journal import scenario_fingerprint
from repro.resilience import ResilienceSpec
from repro.runtime import RuntimeOptions
from repro.sim import RngRegistry, SimEngine
from repro.wms import Savanna

CHAOS_NETWORK = NetworkSpec(
    latency=0.2,
    jitter=0.1,
    drop_prob=0.10,
    dup_prob=0.20,
    reorder_prob=0.10,
    ack_timeout=2.0,
    max_retransmits=5,
    ingress_capacity=64,
    drain_per_tick=32,
    stale_after=20.0,
    degrade_after=3,
    recover_after=3,
)


def run_scenario(options, batched=True):
    """One small synthetic run; returns (fingerprint, server ledger)."""
    cfg = SyntheticConfig(num_tasks=40, total_steps=4, num_clients=4, seed=7)
    engine = SimEngine()
    num_nodes = max(1, math.ceil(cfg.num_tasks / cfg.cores_per_node))
    machine = summit(num_nodes, cores_per_node=cfg.cores_per_node)
    scheduler = BatchScheduler(engine, machine)
    max_time = cfg.step_time * (cfg.total_steps + 4) + 60.0
    job = scheduler.submit(num_nodes, walltime_limit=max_time)
    engine.run(until=0)
    workflow = build_synthetic_workflow(cfg)
    launcher = Savanna(engine, workflow, job.allocation, rng=RngRegistry(cfg.seed))
    orch = build_synthetic_orchestrator(launcher, cfg, options=options)
    assert orch.batch_deliveries is True
    orch.batch_deliveries = batched

    from repro.experiments.results import ScenarioResult

    makespan = execute_scenario(engine, launcher, orch, max_time=max_time)
    result = ScenarioResult(
        name="synthetic", machine="summit", use_dyflow=True, makespan=makespan,
        trace=launcher.trace, plans=orch.plans, metric_history=orch.server.history,
        launcher=launcher,
    )
    ledger = {
        "state": orch.server.state_dict(),
        "duplicates": orch.server.duplicates,
        "offered": orch.server.offered,
        "shed_sensor": orch.server.shed_sensor,
        "staleness_count": orch.server.ingest_staleness.count,
    }
    return scenario_fingerprint(result), ledger


@pytest.mark.parametrize("network", [None, CHAOS_NETWORK],
                         ids=["clean-fabric", "chaos-fabric"])
def test_batched_matches_per_sample_delivery(network):
    resilience = ResilienceSpec(network=network) if network is not None else None
    options = RuntimeOptions(resilience=resilience)
    batched_fp, batched_ledger = run_scenario(options)
    unbatched_fp, unbatched_ledger = run_scenario(options, batched=False)
    assert batched_fp == unbatched_fp
    assert batched_ledger == unbatched_ledger


def test_chaos_fabric_actually_exercises_the_ledgers():
    """Guard the oracle: the chaos profile must hit dedup + staleness."""
    _fp, ledger = run_scenario(
        RuntimeOptions(resilience=ResilienceSpec(network=CHAOS_NETWORK))
    )
    assert ledger["duplicates"] > 0, "dedup filter never exercised"
    assert ledger["staleness_count"] > 0, "no envelope staleness observed"
