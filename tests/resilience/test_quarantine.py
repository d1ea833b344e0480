"""Node circuit breaker: blame windows, cooldown, placement exclusion."""

from repro.resilience import NodeQuarantine, QuarantineSpec, ResilienceSpec, RetryPolicy
from repro.wms import TaskState

from tests.resilience.conftest import flaky_app_factory, make_sim, make_task


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestNodeQuarantineUnit:
    def test_trips_after_threshold_in_window(self):
        clock = FakeClock()
        q = NodeQuarantine(QuarantineSpec(failures=3, window=100.0, cooldown=50.0), clock)
        assert not q.record_failure("n0")
        assert not q.record_failure("n0")
        assert q.record_failure("n0")  # third within the window: trips
        assert q.is_quarantined("n0")
        assert q.active() == {"n0"}
        assert [e.kind for e in q.history] == ["quarantined"]

    def test_old_failures_pruned(self):
        clock = FakeClock()
        q = NodeQuarantine(QuarantineSpec(failures=2, window=10.0, cooldown=50.0), clock)
        q.record_failure("n0")
        clock.t = 20.0  # first failure ages out of the window
        assert not q.record_failure("n0")
        assert not q.is_quarantined("n0")

    def test_cooldown_release_and_rearm(self):
        clock = FakeClock()
        q = NodeQuarantine(QuarantineSpec(failures=1, window=10.0, cooldown=30.0), clock)
        assert q.record_failure("n0")
        clock.t = 29.0
        assert q.is_quarantined("n0")
        clock.t = 31.0
        assert not q.is_quarantined("n0")  # lazily released
        assert [e.kind for e in q.history] == ["quarantined", "released"]
        clock.t = 40.0
        assert q.record_failure("n0")  # trips again after release
        assert q.is_quarantined("n0")

    def test_repeated_failure_rearms_cooldown(self):
        clock = FakeClock()
        q = NodeQuarantine(QuarantineSpec(failures=1, window=100.0, cooldown=30.0), clock)
        q.record_failure("n0")
        clock.t = 20.0
        assert not q.record_failure("n0")  # already tripped: not "newly"
        clock.t = 45.0  # past the first cooldown, within the re-armed one
        assert q.is_quarantined("n0")

    def test_release_is_stamped_at_the_cooldown_end_not_the_query(self):
        clock = FakeClock()
        q = NodeQuarantine(QuarantineSpec(failures=1, window=600.0, cooldown=400.0), clock)
        clock.t = 10.0
        assert q.record_failure("n0")
        clock.t = 1000.0  # nothing asked between the cooldown's end and now
        assert not q.is_quarantined("n0")
        assert [(e.time, e.kind) for e in q.history] == [
            (10.0, "quarantined"), (410.0, "released"),
        ]

    def test_blamed_counts_within_window(self):
        clock = FakeClock()
        q = NodeQuarantine(QuarantineSpec(failures=5, window=10.0, cooldown=30.0), clock)
        q.record_failure("n0")
        q.record_failure("n0")
        assert q.blamed("n0") == 2
        assert q.blamed("n1") == 0


class TestQuarantineEndToEnd:
    def _spec(self, failures=2):
        return ResilienceSpec(
            retry=RetryPolicy(max_retries=5, backoff_base=1.0, jitter=0.0),
            quarantine=QuarantineSpec(failures=failures, window=1e6, cooldown=1e6),
        )

    def test_repeated_crashes_quarantine_node_and_move_task(self):
        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=2, crash_at=1, total_steps=5),
                       nprocs=8)],
            resilience=self._spec(failures=2),
        )
        sav.launch_workflow()
        eng.run(until=1.0)
        first_nodes = set(sav.record("A").current.resources.node_ids)
        eng.run()
        rec = sav.record("A")
        assert rec.current.state == TaskState.COMPLETED
        assert rec.incarnations == 3
        # After two blamed failures the original node is out: the final
        # incarnation avoids it entirely.
        quarantined = sav.quarantine.active()
        assert first_nodes & quarantined
        assert not set(rec.current.resources.node_ids) & quarantined
        assert sav.trace.points_for(label=f"quarantine:{sorted(quarantined)[0]}")

    def test_node_status_reports_quarantined(self):
        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=2, crash_at=1, total_steps=5))],
            resilience=self._spec(failures=2),
        )
        sav.launch_workflow()
        eng.run()
        status = sav.get_resource_status()
        assert "quarantined" in status.values()

    def test_arbitration_shadow_excludes_quarantined_nodes(self):
        from repro.core.arbitration import _Shadow

        eng, _m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=50), nprocs=8)],
            resilience=self._spec(failures=1),
        )
        sav.launch_workflow()
        eng.run(until=2.0)
        victim_node = sorted(sav.rm.healthy_node_ids())[0]
        sav.quarantine.record_failure(victim_node)
        shadow = _Shadow(sav, sav.rm.placement_epoch())
        rs = shadow.place(8, None)
        assert victim_node not in rs.node_ids

    def test_node_failure_blames_only_dead_node(self):
        from repro.cluster.failures import FailureInjector

        eng, m, sav = make_sim(
            [make_task("A", flaky_app_factory(fail_incarnations=0, total_steps=50),
                       nprocs=60)],  # spans two summit nodes (42 cores each)
            resilience=self._spec(failures=1),
        )
        inj = FailureInjector(eng, m)
        inj.subscribe_failure(lambda node, _t: sav.handle_node_failure(node.node_id))
        sav.launch_workflow()
        eng.run(until=3.0)
        nodes = set(sav.record("A").current.resources.node_ids)
        assert len(nodes) == 2
        dead = sorted(nodes)[0]
        survivor = sorted(nodes)[1]
        inj.fail_node_at(5.0, dead)
        eng.run(until=10.0)
        # With failures=1 a single blame quarantines: only the dead node
        # was blamed, never the surviving nodes of the killed instance.
        assert dead in sav.quarantine.active()
        assert survivor not in sav.quarantine.active()


class TestQuarantineMidRetryArbitration:
    """A node tripping the breaker while its task is mid-retry must not
    be handed back out by Arbitration during the cooldown."""

    def _world(self):
        from repro.apps import ConstantModel, IterativeApp
        from repro.core import ArbitrationRules, ArbitrationStage
        from repro.resilience import QuarantineSpec, ResilienceSpec, RetryPolicy
        from repro.wms import TaskSpec

        eng, _m, sav = make_sim(
            [
                # A crashes forever: each death burns a retry and blames
                # its node; the long backoff keeps it mid-retry for ages.
                make_task("A", flaky_app_factory(
                    fail_incarnations=10**9, crash_at=1, total_steps=5), nprocs=8),
                TaskSpec("B", lambda: IterativeApp(ConstantModel(4.0), total_steps=10_000),
                         nprocs=8),
            ],
            num_nodes=4,
            resilience=ResilienceSpec(
                retry=RetryPolicy(max_retries=10, backoff_base=60.0,
                                  backoff_factor=1.0, jitter=0.0),
                quarantine=QuarantineSpec(failures=1, window=1e6, cooldown=1e6),
            ),
        )
        rules = ArbitrationRules.from_workflow(sav.workflow)
        arb = ArbitrationStage(sav, rules, warmup=0.0, settle=0.0)
        arb.begin(0.0)
        sav.launch_workflow()
        return eng, sav, arb

    def test_addcpu_plan_avoids_the_quarantined_node(self):
        from repro.core import ActionType, SuggestedAction

        eng, sav, arb = self._world()
        eng.run(until=5.0)  # A crashed: node blamed + quarantined
        quarantined = sav.quarantine.active()
        assert quarantined
        rec = sav.record("A")
        assert not rec.is_active and not rec.retry_exhausted  # mid-backoff
        # B currently sits on the quarantined node (both started there).
        assert set(sav.record("B").current.resources.node_ids) & quarantined

        plan = arb.arbitrate(
            [SuggestedAction(policy_id="P", action=ActionType.ADDCPU, target="B",
                             workflow_id="W", params={"adjust-by": 8},
                             trigger_time=eng.now)],
            now=eng.now,
        )
        assert plan is not None
        starts = [op for op in plan.ops if op.op == "start_task" and op.task == "B"]
        assert starts, f"no start op in {[o.describe() for o in plan.ops]}"
        for op in starts:
            assert not (set(op.resources.node_ids) & quarantined), (
                f"arbitration re-selected quarantined node(s) "
                f"{set(op.resources.node_ids) & quarantined}"
            )

    def test_retry_relaunch_also_avoids_the_node_during_cooldown(self):
        eng, sav, arb = self._world()
        eng.run(until=5.0)
        quarantined = set(sav.quarantine.active())
        assert quarantined
        # Let the 60 s backoff elapse: the retry relaunch lands off-node.
        eng.run(until=70.0)
        rec = sav.record("A")
        assert rec.incarnations >= 2
        latest = rec.current if rec.current is not None else rec.history[-1]
        assert not (set(latest.resources.node_ids) & quarantined)


class TestQuarantinedSecondsInTheReport:
    """The report's ``quarantined_seconds`` is a property of the run: how
    often something happens to query the quarantine must not move it."""

    XML = """
  <resilience>
    <retry max-retries="3"/>
    <quarantine failures="1" window="600" cooldown="400"/>
    <faults node-mtbf="600" node-repair-time="300" task-crash-mtbf="2000"/>
  </resilience>"""

    def quarantined(self, tmp_path, eval_every):
        import json

        from repro.experiments import run_gray_scott_experiment
        from repro.journal import scenario_fingerprint
        from repro.observability import ObservabilitySpec
        from repro.telemetry import TelemetrySpec

        path = tmp_path / f"report-{eval_every}.json"
        result = run_gray_scott_experiment(
            "summit", seed=4, xml_extra=self.XML, telemetry=TelemetrySpec(),
            # The health engine reads the quarantine on every evaluation.
            observability=ObservabilitySpec(eval_every=eval_every, report_json_path=str(path)),
        )
        nodes = json.loads(path.read_text())["utilization"]["nodes"]
        return {n["node"]: n["quarantined_seconds"] for n in nodes}, scenario_fingerprint(result)

    def test_quarantined_seconds_do_not_depend_on_query_times(self, tmp_path):
        often, often_fp = self.quarantined(tmp_path, eval_every=1.0)
        rarely, rarely_fp = self.quarantined(tmp_path, eval_every=1e5)  # once, at t=0
        assert often_fp == rarely_fp  # same placements, same run
        assert sum(often.values()) > 400.0  # the seed trips the breaker
        assert often == rarely
