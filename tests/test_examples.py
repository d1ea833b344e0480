"""Smoke tests: every example script runs end to end.

Examples are the public face of the library; they must not rot.  Each is
executed in-process via runpy (same interpreter, real execution).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None, capsys=None) -> str:
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys=capsys)
        assert "workflow finished" in out
        assert "Analysis ended with 36 processes" in out

    def test_fusion_alternation(self, capsys):
        out = run_example("fusion_alternation.py", ["summit"], capsys=capsys)
        assert "global steps simulated: 502" in out
        assert "slower (paper: ~25%)" in out

    def test_insitu_rebalancing(self, capsys):
        out = run_example("insitu_rebalancing.py", ["summit"], capsys=capsys)
        assert "Isosurface -> 40 procs" in out
        assert "Isosurface -> 60 procs" in out
        assert "hit the walltime" in out

    def test_failure_recovery(self, capsys):
        out = run_example("failure_recovery.py", ["summit"], capsys=capsys)
        assert "resumed from checkpoint step 412" in out
        assert "never recovers" in out

    def test_campaign_sweep(self, capsys):
        out = run_example("campaign_sweep.py", capsys=capsys)
        assert out.count("converged") == 5

    def test_crash_resume(self, capsys, tmp_path):
        out = run_example("crash_resume.py", [str(tmp_path / "journal")], capsys=capsys)
        assert "controller crashes survived: 2" in out
        assert "RESUME OK" in out

    def test_reproduce_all_summit_only(self, capsys, monkeypatch):
        # The full report runs both machines; patch to Summit only.  The
        # example imports from repro.api, which caches a resolved name,
        # so the patch goes there.
        from repro import api

        original = api.build_report
        monkeypatch.setattr(api, "build_report", lambda: original(machines=("summit",)))
        out = run_example("reproduce_all.py", capsys=capsys)
        assert "ALL SHAPES REPRODUCED" in out

    def test_reproduce_all_exits_1_when_a_claim_is_off(self, capsys, monkeypatch):
        from repro import api
        from repro.experiments.report import Report

        off = Report()
        off.add("Fig. 8 (§4.4)", "summit", "adjustments", "2", "0", False)
        monkeypatch.setattr(api, "build_report", lambda: off)
        with pytest.raises(SystemExit) as exc:
            run_example("reproduce_all.py", capsys=capsys)
        assert exc.value.code == 1
        assert "1 COMPARISONS OFF" in capsys.readouterr().out

    @pytest.mark.slow
    def test_live_gray_scott(self, capsys):
        out = run_example("live_gray_scott.py", capsys=capsys)
        assert "RESTART:Isosurface" in out
        assert "exit code 1" in out and "exit code 0" in out
