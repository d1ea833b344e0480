"""Tests for workflow specifications."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.apps import ConstantModel, IterativeApp
from repro.errors import WorkflowSpecError
from repro.wms import CouplingType, DependencySpec, TaskSpec, WorkflowSpec


def ts(name, nprocs=4, **kw):
    return TaskSpec(name, IterativeApp(ConstantModel(1.0), total_steps=1), nprocs=nprocs, **kw)


class TestTaskSpec:
    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            ts("a", nprocs=0)

    def test_make_app_from_factory_vs_instance(self):
        app = IterativeApp(ConstantModel(1.0))
        spec_inst = TaskSpec("a", app, nprocs=1)
        assert spec_inst.make_app() is app
        spec_fact = TaskSpec("b", lambda: IterativeApp(ConstantModel(1.0)), nprocs=1)
        assert spec_fact.make_app() is not spec_fact.make_app()


class TestWorkflowSpec:
    def test_empty_rejected(self):
        with pytest.raises(WorkflowSpecError):
            WorkflowSpec("w", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(WorkflowSpecError):
            WorkflowSpec("w", [ts("a"), ts("a")])

    def test_unknown_dep_endpoint_rejected(self):
        with pytest.raises(WorkflowSpecError):
            WorkflowSpec("w", [ts("a")], [DependencySpec("a", "ghost")])

    def test_self_dep_rejected(self):
        with pytest.raises(WorkflowSpecError):
            WorkflowSpec("w", [ts("a")], [DependencySpec("a", "a")])

    def test_tight_cycle_rejected(self):
        with pytest.raises(WorkflowSpecError):
            WorkflowSpec(
                "w",
                [ts("a"), ts("b")],
                [DependencySpec("a", "b"), DependencySpec("b", "a")],
            )

    def test_a_tight_three_cycle_names_its_edges(self):
        edges = r"\[\('a', 'b'\), \('b', 'c'\), \('c', 'a'\)\]"
        with pytest.raises(WorkflowSpecError, match=edges):
            WorkflowSpec(
                "w",
                [ts("a"), ts("b"), ts("c")],
                [DependencySpec("b", "a"), DependencySpec("c", "b"), DependencySpec("a", "c")],
            )

    def test_a_cycle_that_avoids_the_first_task_is_found_without_it(self):
        with pytest.raises(WorkflowSpecError, match=r"cycle: \[\('b', 'c'\), \('c', 'b'\)\]$"):
            WorkflowSpec(
                "w",
                [ts("a"), ts("b"), ts("c")],
                [DependencySpec("b", "a"), DependencySpec("c", "b"), DependencySpec("b", "c")],
            )

    def test_a_tight_diamond_is_accepted(self):
        wf = WorkflowSpec(
            "w",
            [ts("a"), ts("b"), ts("c"), ts("d")],
            [DependencySpec("b", "a"), DependencySpec("c", "a"),
             DependencySpec("d", "b"), DependencySpec("d", "c")],
        )
        assert wf.transitive_tight_dependents("a") == ["b", "c", "d"]

    def test_importing_the_api_loads_no_graph_library(self):
        code = "import sys, repro.api; print('networkx' in sys.modules)"
        src = str(pathlib.Path(__file__).parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_loose_cycle_allowed(self):
        """The XGC1/XGCa alternation is a loose mutual dependency."""
        wf = WorkflowSpec(
            "w",
            [ts("a"), ts("b")],
            [
                DependencySpec("a", "b", CouplingType.LOOSE),
                DependencySpec("b", "a", CouplingType.LOOSE),
            ],
        )
        assert wf.tight_parents("a") == []

    def test_tight_parent_and_dependent_queries(self):
        wf = WorkflowSpec(
            "w",
            [ts("sim"), ts("iso"), ts("render"), ts("pdf")],
            [
                DependencySpec("iso", "sim"),
                DependencySpec("render", "iso"),
                DependencySpec("pdf", "sim", CouplingType.LOOSE),
            ],
        )
        assert wf.tight_parents("iso") == ["sim"]
        assert wf.tight_parents("pdf") == []
        assert wf.parents("pdf") == ["sim"]
        assert wf.tight_dependents("sim") == ["iso"]
        assert wf.transitive_tight_dependents("sim") == ["iso", "render"]

    def test_autostart_filtering(self):
        wf = WorkflowSpec("w", [ts("a"), ts("b", autostart=False)])
        assert wf.autostart_tasks() == ["a"]
        assert wf.total_initial_procs() == 4

    def test_unknown_task_lookup(self):
        wf = WorkflowSpec("w", [ts("a")])
        with pytest.raises(WorkflowSpecError):
            wf.task("ghost")
