"""Deterministic campaign resume: completed runs replay from the ledger."""

import pytest

from repro.journal import JournalSpec, read_journal
from repro.wms import Campaign, CampaignRunner, Sweep, TaskSpec, WorkflowSpec


def make_campaign(name="C"):
    def factory(n):
        return WorkflowSpec("W", [TaskSpec("T", lambda: None, nprocs=n)], [])

    return Campaign(name, factory, sweeps=[Sweep("n", [1, 2, 3, 4, 5])])


def run_ids(campaign):
    return [run_id for run_id, _params, _wf in campaign.runs()]


def make_execute(calls):
    def execute(run_id, params, workflow):
        calls.append(run_id)
        return {"run_id": run_id, "n": params["n"], "score": params["n"] * 10}

    return execute


def test_crash_then_resume_executes_each_run_exactly_once(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "campaign"), fsync="off")
    calls = []
    campaign = make_campaign()
    ids = run_ids(campaign)

    first = CampaignRunner(campaign, make_execute(calls), journal=spec)
    results = first.run(stop_after=2)  # "crash" after two runs
    assert [r["replayed"] for r in results] == [False, False]
    assert calls == ids[:2]

    second = CampaignRunner(campaign, make_execute(calls), journal=spec)
    results = second.run()
    assert [r["replayed"] for r in results] == [True, True, False, False, False]
    # Replayed results are the journaled ones, verbatim.
    assert results[0]["result"] == {"run_id": ids[0], "n": 1, "score": 10}
    assert results[4]["result"]["score"] == 50
    # No run ever executed twice across both runners.
    assert calls == ids


def test_resume_bumps_epoch_and_journals_every_run(tmp_path):
    spec = JournalSpec(dir=str(tmp_path / "campaign"), fsync="off")
    campaign = make_campaign()
    CampaignRunner(campaign, make_execute([]), journal=spec).run(stop_after=3)
    CampaignRunner(campaign, make_execute([]), journal=spec).run()
    state = read_journal(spec.dir)
    assert state.epoch == 2
    done = [r["run_id"] for r in state.records if r["kind"] == "run-completed"]
    assert sorted(done) == sorted(run_ids(campaign))
    assert len(done) == len(set(done))


def test_without_journal_everything_just_runs(tmp_path):
    calls = []
    results = CampaignRunner(make_campaign(), make_execute(calls)).run()
    assert len(results) == 5
    assert len(calls) == 5
    assert all(not r["replayed"] for r in results)


class TestPoisonedRuns:
    """A deterministically-failing cell is quarantined, not fatal."""

    @staticmethod
    def make_execute(calls, poison_n):
        def execute(run_id, params, workflow):
            calls.append(run_id)
            if params["n"] == poison_n:
                raise RuntimeError(f"cell n={poison_n} always crashes")
            return {"run_id": run_id, "n": params["n"]}

        return execute

    def test_poison_cell_is_quarantined_and_grid_completes(self, tmp_path):
        spec = JournalSpec(dir=str(tmp_path / "campaign"), fsync="off")
        calls = []
        campaign = make_campaign()
        runner = CampaignRunner(
            campaign, self.make_execute(calls, poison_n=3),
            journal=spec, max_attempts=3,
        )
        results = runner.run()
        assert [r["status"] for r in results] == [
            "completed", "completed", "poisoned", "completed", "completed",
        ]
        poisoned_id = run_ids(campaign)[2]
        # Retried exactly max_attempts times, then skipped.
        assert calls.count(poisoned_id) == 3
        state = read_journal(spec.dir)
        fails = [r for r in state.records if r["kind"] == "run-failed"]
        assert [r["attempt"] for r in fails] == [1, 2, 3]
        assert all("always crashes" in r["error"] for r in fails)
        quarantined = [
            r for r in state.records if r["kind"] == "run-poisoned"
        ]
        assert [r["run_id"] for r in quarantined] == [poisoned_id]
        assert len(quarantined[0]["failures"]) == 3

    def test_resumed_runner_skips_poison_without_reexecuting(self, tmp_path):
        spec = JournalSpec(dir=str(tmp_path / "campaign"), fsync="off")
        campaign = make_campaign()
        first_calls = []
        CampaignRunner(
            campaign, self.make_execute(first_calls, poison_n=2),
            journal=spec, max_attempts=2,
        ).run(stop_after=4)  # crash after n=1..4 (n=2 poisoned)

        second_calls = []
        results = CampaignRunner(
            campaign, self.make_execute(second_calls, poison_n=2),
            journal=spec, max_attempts=2,
        ).run()
        ids = run_ids(campaign)
        # Only the single unfinished run executes; completed cells and the
        # poison cell both replay from the ledger.
        assert second_calls == [ids[4]]
        assert [r["status"] for r in results] == [
            "completed", "poisoned", "completed", "completed", "completed",
        ]
        assert [r["replayed"] for r in results] == [
            True, True, True, True, False,
        ]
        assert results[1]["result"] is None

    def test_transient_failure_recovers_within_budget(self, tmp_path):
        spec = JournalSpec(dir=str(tmp_path / "campaign"), fsync="off")
        campaign = make_campaign()
        attempts: dict[str, int] = {}

        def flaky(run_id, params, workflow):
            attempts[run_id] = attempts.get(run_id, 0) + 1
            if params["n"] == 4 and attempts[run_id] < 3:
                raise OSError("transient")
            return {"n": params["n"]}

        results = CampaignRunner(
            campaign, flaky, journal=spec, max_attempts=3
        ).run()
        assert all(r["status"] == "completed" for r in results)
        flaky_id = run_ids(campaign)[3]
        assert attempts[flaky_id] == 3
        state = read_journal(spec.dir)
        fails = [r for r in state.records if r["kind"] == "run-failed"]
        assert [r["run_id"] for r in fails] == [flaky_id, flaky_id]

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignRunner(make_campaign(), lambda *a: {}, max_attempts=0)
