"""Batched envelope delivery against the per-sample delivery it replaced.

The sim driver aggregates same-deliver-time envelope deliveries into one
engine event per (link, tick).  The one-event-per-envelope path is gone;
on a clean fabric and under drop/dup/reorder faults the batched run must
still produce the ``scenario_fingerprint`` and the MonitorServer ledger
(dedup filter state, received/forwarded counts, last-seen times,
backpressure counters) that both modes produced when the per-sample path
was last run beside it.
"""

import hashlib
import json
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


#: What per-sample and batched delivery both produced, per fabric:
#: (scenario fingerprint, sha256 of the sorted-key JSON of the ledger).
PINNED = {
    "clean-fabric": (
        "c7e8dc4d972945d33ecf40ccb706df4a9ab8d1a51ff65ca471cf507e2730e650",
        "1db92ad1196b80b239a6579106952741a185219a572057b124fce1d6b13ca884",
    ),
    "chaos-fabric": (
        "c7e8dc4d972945d33ecf40ccb706df4a9ab8d1a51ff65ca471cf507e2730e650",
        "1e57cc29168bf0141e54d24cbe8c5bf84cad4dd6c071c25470759542c44f447d",
    ),
}


def run_scenario(options):
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


def ledger_digest(ledger) -> str:
    return hashlib.sha256(json.dumps(ledger, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("network", [None, CHAOS_NETWORK],
                         ids=["clean-fabric", "chaos-fabric"])
def test_batched_matches_per_sample_delivery(network, request):
    resilience = ResilienceSpec(network=network) if network is not None else None
    fp, ledger = run_scenario(RuntimeOptions(resilience=resilience))
    assert (fp, ledger_digest(ledger)) == PINNED[request.node.callspec.id]


def test_chaos_fabric_actually_exercises_the_ledgers():
    """Guard the oracle: the chaos profile must hit dedup + staleness."""
    _fp, ledger = run_scenario(
        RuntimeOptions(resilience=ResilienceSpec(network=CHAOS_NETWORK))
    )
    assert ledger["duplicates"] > 0, "dedup filter never exercised"
    assert ledger["staleness_count"] > 0, "no envelope staleness observed"
