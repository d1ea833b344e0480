"""Per-node utilization reconstruction — live inputs and JSONL events."""

from repro.cluster.allocation import ResourceSet
from repro.observability.utilization import (
    BusySegment,
    build_utilization,
    quarantine_intervals,
    utilization_from_events,
)
from repro.sim.trace import Span


def seg(node, cores, start, end, task="T"):
    return BusySegment(node_id=node, cores=cores, start=start, end=end, task=task)


class TestQuarantineIntervals:
    def test_pairs_quarantined_with_released(self):
        history = [
            (10.0, "n1", "quarantined"),
            (25.0, "n1", "released"),
            (30.0, "n2", "quarantined"),
            (40.0, "n2", "released"),
        ]
        out = quarantine_intervals(history, end=100.0)
        assert out == {"n1": [(10.0, 25.0)], "n2": [(30.0, 40.0)]}

    def test_unreleased_nodes_clamp_to_the_horizon(self):
        out = quarantine_intervals([(10.0, "n1", "quarantined")], end=60.0)
        assert out == {"n1": [(10.0, 60.0)]}

    def test_release_without_open_interval_is_ignored(self):
        assert quarantine_intervals([(3.0, "n5", "released")], end=10.0) == {}


class TestBuildUtilization:
    def test_core_seconds_and_aggregate(self):
        report = build_utilization(
            {"n1": 4, "n2": 4},
            [seg("n1", 4, 0.0, 10.0), seg("n2", 2, 0.0, 5.0)],
            start=0.0, end=10.0,
        )
        assert report.total_cores == 8
        assert report.busy_core_seconds == 4 * 10 + 2 * 5
        assert report.utilization == 50.0 / 80.0
        assert report.horizon == 10.0
        n1, n2 = report.nodes
        assert (n1.node_id, n1.utilization) == ("n1", 1.0)
        assert (n2.node_id, n2.utilization) == ("n2", 10.0 / 40.0)

    def test_segments_are_clipped_to_the_window(self):
        report = build_utilization(
            {"n1": 2}, [seg("n1", 2, -5.0, 15.0)], start=0.0, end=10.0
        )
        assert report.busy_core_seconds == 2 * 10

    def test_timeline_steps_track_concurrent_tasks(self):
        report = build_utilization(
            {"n1": 8},
            [seg("n1", 2, 0.0, 10.0, "A"), seg("n1", 4, 5.0, 10.0, "B")],
            start=0.0, end=12.0,
        )
        (n1,) = report.nodes
        assert n1.timeline == ((0.0, 5.0, 2), (5.0, 10.0, 6), (10.0, 12.0, 0))

    def test_quarantined_seconds_accrue_per_node(self):
        report = build_utilization(
            {"n1": 2, "n2": 2}, [], start=0.0, end=10.0,
            quarantine_history=[(2.0, "n2", "quarantined"), (6.0, "n2", "released")],
        )
        assert report.nodes[0].quarantined_seconds == 0.0
        assert report.nodes[1].quarantined_seconds == 4.0

    def test_empty_inputs_degrade_to_zero(self):
        report = build_utilization({}, [], start=0.0, end=0.0)
        assert report.total_cores == 0 and report.utilization == 0.0
        assert report.nodes == ()


class TestUtilizationFromEvents:
    @staticmethod
    def point(time, name, **attrs):
        return {"kind": "point", "time": time, "name": name, "attrs": attrs}

    def records(self, sim_end=10.0):
        """An allocation and two task spans, placement included."""
        return [
            self.point(0.0, "run.allocation", nodes={"n1": 4, "n2": 4}),
            Span("Sim", "Sim-0", 0.0, sim_end, resources=ResourceSet({"n1": 4})).to_record(),
            Span("Analysis", "An-0", 0.0, 5.0, resources=ResourceSet({"n2": 2})).to_record(),
        ]

    def test_rebuilds_the_same_report_as_explicit_segments(self):
        from_events = utilization_from_events(self.records())
        explicit = build_utilization(
            {"n1": 4, "n2": 4},
            [seg("n1", 4, 0.0, 10.0, "Sim"), seg("n2", 2, 0.0, 5.0, "Analysis")],
            start=0.0, end=10.0,
        )
        assert from_events == explicit

    def test_unmatched_running_tasks_clamp_to_the_horizon(self):
        records = self.records(sim_end=None)  # Sim never ends
        report = utilization_from_events(records, end=20.0)
        n1 = report.nodes[0]
        assert n1.busy_core_seconds == 4 * 20.0

    def test_quarantine_history_points_feed_the_intervals(self):
        records = self.records() + [
            self.point(10.0, "run.quarantine-history",
                       events=[[2.0, "n2", "quarantined"], [7.0, "n2", "released"]]),
        ]
        report = utilization_from_events(records)
        assert report.nodes[1].quarantined_seconds == 5.0

    def test_non_point_records_are_ignored(self):
        records = [{"kind": "span", "time": 99.0, "name": "x"}] + self.records()
        assert utilization_from_events(records).end == 10.0
