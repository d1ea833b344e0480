"""Both drivers are one control plane: ``RuntimeCore`` wires it once.

Two checks.  *Conformance*: the same bootstrap sequence on
``DyflowOrchestrator`` and ``ThreadedDyflow`` yields the same effective
spec, the same error messages and the same client/link layout — the
copies had drifted (the threaded ``monitor_task`` took no ``info_source``,
so a FILEREAD/DISKSCAN sensor could not be bound there at all).
*Wired once*: an AST walk over ``src/repro/runtime`` finds each subsystem
constructor, each export writer and the journal-argument resolution in
exactly one module, so a re-duplicated constructor fails here by name.
"""

import ast
import dataclasses
import functools
import pathlib

import pytest

import repro.runtime
from repro.apps import ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.core import ActionType, PolicyApplication, PolicySpec, SensorSpec
from repro.errors import DyflowError
from repro.fabric import NetworkSpec
from repro.journal import JournalSpec
from repro.lint import spec_from_runtime
from repro.observability import HEALTH_TASK, ObservabilitySpec
from repro.resilience import ResilienceSpec
from repro.runtime import DyflowOrchestrator, LiveTaskSpec, RuntimeOptions, ThreadedDyflow
from repro.sim import RngRegistry, SimEngine
from repro.wms import Savanna, TaskSpec, WorkflowSpec


def sim_driver(options=None, **kw):
    machine = summit(2)
    alloc = Allocation("a0", machine, machine.nodes, walltime_limit=1e9)
    task = TaskSpec("T", lambda: IterativeApp(ConstantModel(1.0), total_steps=4), nprocs=2)
    launcher = Savanna(SimEngine(), WorkflowSpec("W", [task], []), alloc, rng=RngRegistry(1))
    return DyflowOrchestrator(launcher, options=options, **kw)


def threaded_driver(options=None, **kw):
    return ThreadedDyflow("W", [LiveTaskSpec("T", lambda s, w: None)], options=options, **kw)


DRIVERS = pytest.mark.parametrize("make", [sim_driver, threaded_driver], ids=["sim", "threaded"])


def full_options(tmp_path, name):
    return RuntimeOptions(
        resilience=ResilienceSpec(network=NetworkSpec(latency=0.1, ack_timeout=1.0)),
        observability=ObservabilitySpec(),
        journal=JournalSpec(dir=str(tmp_path / name), fsync="off"),
    )


def bootstrap(driver):
    driver.add_sensor(SensorSpec("PACE", "TAUADIOS2"))
    driver.add_sensor(SensorSpec("ALERTS", "HEALTH"))
    driver.monitor_task("T", "PACE", var="looptime")
    driver.monitor_task(HEALTH_TASK, "ALERTS", var="alerts.firing")
    driver.add_policy(PolicySpec("INC", "PACE", "GT", 2.0, ActionType.ADDCPU))
    driver.apply_policy(PolicyApplication("INC", "W", ("T",), assess_task="T"))


class TestConformance:
    def test_same_bootstrap_same_spec(self, tmp_path):
        options = full_options(tmp_path, "j")
        sim, live = sim_driver(options), threaded_driver(options)
        bootstrap(sim)
        bootstrap(live)
        sim_spec, live_spec = spec_from_runtime(sim), spec_from_runtime(live)
        # Only the simulated driver has an Arbitration stage, hence rules.
        assert set(sim_spec.rules) == {"W"} and live_spec.rules == {}
        assert dataclasses.replace(sim_spec, rules={}) == live_spec
        assert live_spec.resilience is options.resilience
        assert live_spec.journal is options.journal
        assert [(m.task, m.sensor_id) for m in live_spec.monitor_tasks] == [
            ("T", "PACE"), (HEALTH_TASK, "ALERTS"),
        ]

    @DRIVERS
    def test_one_link_per_client(self, make, tmp_path):
        driver = make(full_options(tmp_path, "j"))
        assert set(driver.links) == {c.client_id for c in driver.clients}
        assert driver.degrade is not None and driver.server.fabric_enabled
        plain = make()
        assert plain.links == {} and plain.network is None and plain.degrade is None

    def test_error_messages_are_the_same(self):
        def message(make, provoke):
            driver = make()
            driver.add_sensor(SensorSpec("PACE", "TAUADIOS2"))
            driver.add_sensor(SensorSpec("ALERTS", "HEALTH"))
            with pytest.raises(DyflowError) as exc:
                provoke(driver)
            return str(exc.value)

        provocations = {
            "unknown sensor": lambda d: d.monitor_task("T", "NOPE"),
            "unknown task": lambda d: d.monitor_task("Ghost", "PACE"),
            "HEALTH without observability": lambda d: d.monitor_task(HEALTH_TASK, "ALERTS"),
            "duplicate sensor": lambda d: d.add_sensor(SensorSpec("PACE", "TAUADIOS2")),
        }
        for name, provoke in provocations.items():
            sim, live = message(sim_driver, provoke), message(threaded_driver, provoke)
            assert sim == live, name

        def bad_journal(make):
            with pytest.raises(DyflowError) as exc:
                make(RuntimeOptions(journal="journal-dir"))
            return str(exc.value)

        assert bad_journal(sim_driver) == bad_journal(threaded_driver)
        assert "Journal or JournalSpec" in bad_journal(sim_driver)

    def test_threaded_monitor_task_takes_an_info_source(self):
        live = threaded_driver()
        live.add_sensor(SensorSpec("NSTEPS", "DISKSCAN"))
        live.add_sensor(SensorSpec("RESID", "FILEREAD"))
        scan = live.monitor_task("T", "NSTEPS", info_source="out/T.out.*")
        read = live.monitor_task("T", "RESID", info_source="diag/T.json", var="residual")
        fs = live.hub.filesystem
        fs.write("out/T.out.0", None, 1.0, step=0)
        fs.write("elsewhere/T.out.0", None, 1.0, step=0)
        fs.write("diag/T.json", {"residual": 0.25}, 1.0)
        assert [s.value for s in scan.source.poll(2.0)] == [1.0]  # only the named glob
        assert [s.value for s in read.source.poll(2.0)] == [0.25]
        assert [b.instance for b in live.clients[0].bindings] == [scan, read]


# -- wired once ------------------------------------------------------------------- #
RUNTIME_DIR = pathlib.Path(repro.runtime.__file__).parent
WIRED_ONCE = (
    "HealthEngine", "FabricLink", "DegradedModeController", "build_tracer", "make_source",
    "write_openmetrics", "write_chrome_trace", "report_from_jsonl",
)
BOOTSTRAP_API = ("add_sensor", "monitor_task", "add_policy", "apply_policy")


@functools.cache
def runtime_modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(RUNTIME_DIR.glob("*.py"))
    }


def modules_mentioning(name):
    """Modules that import or use *name* (docstrings and comments do not count)."""
    hits = []
    for module, tree in runtime_modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.alias) and name in (node.name, node.asname)
            ):
                hits.append(module)
                break
    return hits


@pytest.mark.parametrize("name", WIRED_ONCE)
def test_subsystem_is_wired_in_one_module(name):
    assert modules_mentioning(name) == ["core.py"]


def test_journal_argument_is_resolved_in_one_module():
    hits = []
    for module, tree in runtime_modules().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(isinstance(n, ast.Name) and n.id == "JournalSpec"
                        for n in ast.walk(node.args[1]))
            ):
                hits.append(module)
    assert hits == ["core.py"]


@pytest.mark.parametrize("method", BOOTSTRAP_API)
def test_bootstrap_method_is_defined_once(method):
    definitions = [
        module
        for module, tree in runtime_modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == method
    ]
    assert definitions == ["core.py"]
