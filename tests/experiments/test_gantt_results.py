"""Tests for Gantt rendering and the scenario result container."""


from repro.experiments.gantt import render_gantt, timeline_events
from repro.experiments.results import ScenarioResult
from repro.sim import RunLog


def make_trace():
    tr = RunLog()
    tr.add_span("XGC1", "XGC1#0", 0.0, 50.0)
    tr.add_span("XGCA", "XGCA#0", 50.0, 75.0)
    tr.add_span("XGC1", "XGC1#1", 75.0, 100.0)
    tr.add_span("DYFLOW", "plan-0", 49.0, 51.0, category="adjust")
    tr.point(50.0, "start:XGCA", category="plan")
    return tr


class TestRenderGantt:
    def test_empty_trace(self):
        assert render_gantt(RunLog()) == "(empty trace)"

    def test_tracks_rendered_as_rows(self):
        out = render_gantt(make_trace(), width=50)
        lines = out.splitlines()
        assert any(line.startswith("XGC1") for line in lines)
        assert any(line.startswith("XGCA") for line in lines)

    def test_bars_cover_the_right_halves(self):
        out = render_gantt(make_trace(), width=100)
        xgc1 = next(ln for ln in out.splitlines() if ln.startswith("XGC1"))
        bar = xgc1.split("|")[1]
        # Runs 0-50 and 75-100: the first half is filled, 55-70 is not.
        assert bar[10] == "=" and bar[40] == "="
        assert bar[60] == " "
        assert bar[85] == "="

    def test_adjust_row_marks_response_windows(self):
        out = render_gantt(make_trace(), width=100)
        dyflow = next(ln for ln in out.splitlines() if ln.startswith("DYFLOW"))
        assert "!" in dyflow

    def test_end_time_override(self):
        out = render_gantt(make_trace(), width=50, end_time=200.0)
        assert "0 .. 200s" in out

    def test_timeline_events(self):
        events = timeline_events(make_trace(), category="plan")
        assert len(events) == 1 and "start:XGCA" in events[0]


class TestScenarioResult:
    def make_result(self):
        return ScenarioResult(
            name="t", machine="summit", use_dyflow=True, makespan=100.0,
            trace=make_trace(),
        )

    def test_task_runs(self):
        res = self.make_result()
        assert res.task_runs("XGC1") == [(0.0, 50.0), (75.0, 100.0)]
        assert res.task_runs("GHOST") == []

    def test_response_times_empty_without_plans(self):
        assert self.make_result().response_times() == []
