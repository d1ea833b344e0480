"""BoundedShedQueue unit tests and the threaded driver's fabric wiring."""

import queue
import time

import pytest

from repro.core import ActionType, GroupBySpec, SensorSpec, SuggestedAction
from repro.core.actions import Outcome, Reason, reason_counts
from repro.fabric import BoundedShedQueue, NetworkSpec
from repro.resilience import ResilienceSpec
from repro.runtime import RuntimeOptions
from repro.runtime.threaded import LiveTaskSpec, ThreadedDyflow


class TestBoundedShedQueue:
    def test_fifo(self):
        q = BoundedShedQueue(4)
        for i in range(3):
            q.put(i)
        assert [q.get(timeout=0.1) for _ in range(3)] == [0, 1, 2]

    def test_unbounded_with_zero_capacity(self):
        q = BoundedShedQueue(0)
        for i in range(1000):
            q.put(i)
        assert len(q) == 1000 and q.shed == 0

    def test_sheds_oldest_when_full(self):
        q = BoundedShedQueue(2)
        assert [q.put(i) for i in range(4)] == [None, None, 0, 1]  # hands back what it shed
        assert q.shed == 2 and len(q) == 2
        assert q.get(timeout=0.1) == 2  # 0 and 1 were shed, oldest first

    def test_get_timeout_raises_empty(self):
        q = BoundedShedQueue(2)
        t0 = time.perf_counter()
        with pytest.raises(queue.Empty):
            q.get(timeout=0.05)
        assert time.perf_counter() - t0 >= 0.04


class TestThreadedFabricWiring:
    def make_runner(self, network=None, **kw):
        resilience = ResilienceSpec(network=network) if network is not None else None
        defaults = dict(poll_interval=0.05, warmup=0.1, settle=0.1,
                        options=RuntimeOptions(resilience=resilience))
        defaults.update(kw)
        return ThreadedDyflow(
            "LIVE",
            [LiveTaskSpec("T", lambda s, w: time.sleep(0.02), total_steps=10)],
            **defaults,
        )

    def test_no_network_leaves_plain_path(self):
        runner = self.make_runner()
        assert runner.links == {} and runner.degrade is None
        assert not runner.server.fabric_enabled

    def test_disabled_network_ignored(self):
        # A <resilience> section without <network> installs no fabric.
        runner = self.make_runner(options=RuntimeOptions(resilience=ResilienceSpec()))
        assert runner.network is None and runner.links == {}

    def test_queue_capacity_exposed_via_shed_counter(self):
        runner = self.make_runner(queue_capacity=2)
        assert runner._queue.shed == 0
        batches = [
            [SuggestedAction(f"P{i}", ActionType.ADDCPU, "T", "LIVE") for _ in range(i + 1)]
            for i in range(4)
        ]
        for batch in batches:
            runner._hand_off(batch)
        assert runner._queue.shed == 2
        # Each suggestion of a shed batch ends in one outcome: superseded.
        outcomes = runner.launcher.log.of_type(Outcome)
        assert reason_counts(runner.launcher.log) == {Reason.SUPERSEDED: 1 + 2}
        assert [o.policy_id for o in outcomes] == ["P0", "P1", "P1"]
        assert [runner._queue.get(timeout=0.1) for _ in range(2)] == batches[2:]

    def test_live_run_through_lossy_fabric(self):
        # Monitor traffic survives a lossy wall-clock link end to end:
        # updates still reach the server history via ack/retransmit.
        runner = self.make_runner(
            NetworkSpec(drop_prob=0.3, dup_prob=0.2, ack_timeout=0.05,
                        max_retransmits=10, retransmit_max=0.2,
                        ingress_capacity=64, drain_per_tick=0)
        )
        assert list(runner.links) == ["live-client"] and runner.server.fabric_enabled
        link = runner.links["live-client"]
        runner.add_sensor(SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),)))
        runner.monitor_task("T", "PACE")
        runner.start()
        assert runner.wait_until_done(timeout=10.0)
        time.sleep(0.5)  # let retransmits and the drain loop settle
        runner.stop()
        values = [u.value for u in runner.server.history if u.task == "T"]
        assert values, "no updates survived the lossy link"
        assert link.sent > 0 and link.acked > 0
        # Dedup guarantee holds on the wall-clock path too: every copy the
        # filter caught came from a dup draw or a retransmit, never fresh data.
        assert runner.server.duplicates <= link.duplicated + link.retransmits
