"""RuntimeOptions: the consolidated runtime-configuration bundle.

``options=`` is the only constructor path: the per-subsystem keyword
arguments the drivers once accepted are gone, like the other renamed-API
shims checked at the bottom.
"""

import pytest

from repro.apps import ConstantModel, IterativeApp
from repro.cluster import Allocation, summit
from repro.journal import JournalSpec
from repro.observability import ObservabilitySpec
from repro.resilience import ResilienceSpec, RetryPolicy
from repro.runtime import DyflowOrchestrator, RuntimeOptions, ThreadedDyflow
from repro.sim import RngRegistry, SimEngine
from repro.telemetry import TelemetrySpec
from repro.wms import Savanna, TaskSpec, WorkflowSpec
from repro.xmlspec.model import DyflowSpec


def make_launcher():
    eng = SimEngine()
    m = summit(2)
    alloc = Allocation("a0", m, m.nodes, walltime_limit=1e9)
    wf = WorkflowSpec(
        "W", [TaskSpec("T", lambda: IterativeApp(ConstantModel(5.0)), nprocs=4)], []
    )
    return eng, Savanna(eng, wf, alloc, rng=RngRegistry(1))


class TestRuntimeOptions:
    def test_defaults(self):
        opts = RuntimeOptions()
        assert opts.telemetry is None
        assert opts.observability is None
        assert opts.journal is None
        assert opts.preflight == "off"
        assert opts.resilience is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RuntimeOptions().preflight = "strict"

    def test_override_copies(self):
        base = RuntimeOptions()
        changed = base.override(preflight="warn")
        assert changed.preflight == "warn"
        assert base.preflight == "off"

    def test_from_spec_lifts_runtime_sections(self):
        spec = DyflowSpec(
            telemetry=TelemetrySpec(enabled=True),
            journal=JournalSpec(enabled=False),
            observability=ObservabilitySpec(enabled=False),
            resilience=ResilienceSpec(retry=RetryPolicy(max_retries=2)),
        )
        opts = RuntimeOptions.from_spec(spec)
        assert opts.telemetry is spec.telemetry
        assert opts.journal is spec.journal
        assert opts.observability is spec.observability
        assert opts.resilience is spec.resilience
        assert opts.preflight == "off"


class TestOrchestratorOptions:
    def test_options_accepted_end_to_end(self):
        eng, sav = make_launcher()
        opts = RuntimeOptions(telemetry=TelemetrySpec(enabled=True), preflight="warn")
        orch = DyflowOrchestrator(sav, options=opts)
        assert orch.options is opts
        assert orch.telemetry is opts.telemetry
        assert orch.preflight == "warn"

    def test_resilience_configures_launcher(self):
        eng, sav = make_launcher()
        spec = ResilienceSpec(retry=RetryPolicy(max_retries=2))
        DyflowOrchestrator(sav, options=RuntimeOptions(resilience=spec))
        assert sav.resilience is spec

    def test_no_resilience_leaves_launcher_config_intact(self):
        eng, sav = make_launcher()
        spec = ResilienceSpec(retry=RetryPolicy(max_retries=2))
        sav.configure_resilience(spec)
        DyflowOrchestrator(sav, options=RuntimeOptions())
        assert sav.resilience is spec

    @pytest.mark.parametrize("kwarg,value", [
        ("telemetry", None),
        ("observability", None),
        ("journal", None),
        ("preflight", "off"),
    ])
    def test_legacy_kwarg_is_a_type_error(self, kwarg, value):
        eng, sav = make_launcher()
        with pytest.raises(TypeError, match=kwarg):
            DyflowOrchestrator(sav, **{kwarg: value})


class TestThreadedOptions:
    def test_options_accepted_end_to_end(self):
        spec = ResilienceSpec(retry=RetryPolicy(max_retries=1))
        opts = RuntimeOptions(resilience=spec, preflight="warn")
        runner = ThreadedDyflow("WF", [], options=opts)
        assert runner.options is opts
        assert runner.resilience is spec
        assert runner.preflight == "warn"

    @pytest.mark.parametrize("kwarg,value", [
        ("resilience", None),
        ("telemetry", None),
        ("observability", None),
        ("journal", None),
        ("preflight", "off"),
    ])
    def test_legacy_kwarg_is_a_type_error(self, kwarg, value):
        with pytest.raises(TypeError, match=kwarg):
            ThreadedDyflow("WF", [], **{kwarg: value})


class TestRemovedShims:
    """The PR 2 renamed-API shims were removed once callers migrated."""

    def test_monitor_receive_is_positional_only_api(self):
        from repro.core.monitor import MonitorServer
        from repro.util.jsonmsg import Envelope

        server = MonitorServer()
        env = Envelope(kind="sensor-update", sender="c/PACE", seq=0,
                       time=0.0, payload={"updates": []})
        with pytest.raises(TypeError):
            server.receive(env=env)  # the old keyword no longer exists
        server.receive(env)
        assert server.received == 1

    def test_monitor_receive_requires_an_envelope(self):
        from repro.core.monitor import MonitorServer

        server = MonitorServer()
        with pytest.raises(TypeError):
            server.receive()

    def test_threaded_shutdown_alias_removed(self):
        runner = ThreadedDyflow("WF", tasks=[])
        assert not hasattr(runner, "shutdown")
