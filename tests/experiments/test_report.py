"""Tests for the paper-vs-measured report generator.

EXPERIMENTS.md embeds ``format_report(build_report())`` verbatim between
``<!-- BEGIN generated: claims -->`` and ``<!-- END generated: claims -->``;
``test_experiments_md_holds_the_generated_table`` keeps the committed
copy in step with the code.
"""

import pathlib

import pytest

import repro.experiments.report as report_mod
from repro.experiments.report import Report, build_report, format_report

DOC = pathlib.Path(__file__).parents[2] / "EXPERIMENTS.md"
SCENARIOS = (
    "run_xgc_experiment", "run_gray_scott_experiment", "run_lammps_experiment",
    "run_cost_analysis",
)


@pytest.fixture(scope="module")
def full_report():
    """Both machines, as EXPERIMENTS.md shows it, with every scenario call."""
    calls = []

    def recording(name, scenario):
        def run(machine, **kwargs):
            calls.append((name, machine, tuple(sorted(kwargs.items()))))
            return scenario(machine, **kwargs)
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in SCENARIOS:
            mp.setattr(report_mod, name, recording(name, getattr(report_mod, name)))
        report = build_report()
    return report, calls


class TestReportContainer:
    def test_add_and_flags(self):
        r = Report()
        r.add("e", "m", "q", "p", "v", True)
        r.add("e", "m", "q2", "p", "v", False)
        assert not r.all_ok
        assert len(r.failures()) == 1

    def test_format_alignment_and_status(self):
        r = Report()
        r.add("exp", "summit", "quantity", "paper-claim", "measured-value", True)
        text = format_report(r)
        assert "EXPERIMENT" in text and "✓" in text
        assert "ALL SHAPES REPRODUCED" in text

    def test_format_reports_failures(self):
        r = Report()
        r.add("exp", "summit", "q", "p", "v", False)
        assert "1 COMPARISONS OFF" in format_report(r)


class TestBuildReport:
    @pytest.fixture(scope="class")
    def summit_rows(self, full_report):
        return [r for r in full_report[0].rows if r.machine == "summit"]

    def test_all_summit_shapes_reproduce(self, summit_rows):
        assert all(r.ok for r in summit_rows), [r for r in summit_rows if not r.ok]

    def test_covers_all_experiments(self, summit_rows):
        experiments = {r.experiment for r in summit_rows}
        assert experiments == {
            "Table 1 (§4.3)", "Fig. 6 (§4.3)",
            "Table 2 (§4.4)", "Fig. 1 (§4.4)", "Fig. 8 (§4.4)", "Fig. 9 (§4.4)",
            "Table 3 (§4.5)", "Fig. 11 (§4.5)",
            "cost (§4.6)", "ablation", "extension (§6)",
        }

    def test_checkpoint_row_present(self, summit_rows):
        rows = [r for r in summit_rows if "checkpoint" in r.quantity]
        assert rows and rows[0].measured == "412"

    def test_each_distinct_run_happens_once(self, full_report):
        _report, calls = full_report
        assert len(calls) == len(set(calls))
        # The Gray-Scott Summit run feeds Figs. 1, 8, 9 and the ablations.
        assert calls.count(
            ("run_gray_scott_experiment", "summit", (("use_dyflow", True),))
        ) == 1


def test_experiments_md_holds_the_generated_table(full_report):
    report, _calls = full_report
    assert report.all_ok, format_report(report)
    block = (
        "<!-- BEGIN generated: claims -->\n```text\n"
        f"{format_report(report)}\n"
        "```\n<!-- END generated: claims -->"
    )
    assert block in DOC.read_text(encoding="utf-8"), (
        f"EXPERIMENTS.md is stale; replace its claims block with:\n\n{block}\n"
    )
