"""Structure guard for the records built on every simulated application step.

One step constructs a timeout event, a ``Sample`` per rank and two
``StreamStep`` records, so a per-instance ``__dict__`` on any of them is
paid 100 000+ times per scenario.  These checks fail when one comes back,
and pin the construction surface the rest of the repo relies on.
"""

import pytest

from repro.core.sensors import StreamSource
from repro.sim import AllOf, AnyOf, SimEngine
from repro.sim.events import SimEvent
from repro.sim.process import Process
from repro.staging import DataHub, Sample
from repro.staging.stream import StreamStep


def _sample(**overrides) -> Sample:
    fields = dict(time=1.0, workflow_id="W", task="T", rank=0, node_id="n0",
                  var="looptime", value=2.5)
    fields.update(overrides)
    return Sample(**fields)


def _records() -> list:
    eng = SimEngine()

    def body():
        yield eng.timeout(1.0)

    ev = eng.event("e")
    return [ev, eng.timeout(1.0), eng.process(body()), AnyOf(eng, [ev]), AllOf(eng, [ev]),
            _sample(), StreamStep(step=0, data=None, time=0.0)]


class TestNoInstanceDict:
    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_instances_have_no_dict(self, record):
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("cls", [SimEvent, Process, AnyOf, AllOf])
    def test_event_classes_declare_slots_all_the_way_up(self, cls):
        assert all("__slots__" in vars(k) for k in cls.__mro__ if k is not object)

    def test_an_undeclared_attribute_is_rejected(self):
        with pytest.raises(AttributeError):
            SimEngine().event().note = "x"


class TestImmutableRecords:
    def test_sample_fields_order_and_step_default(self):
        s = _sample()
        assert Sample._fields == ("time", "workflow_id", "task", "rank", "node_id",
                                  "var", "value", "step")
        assert s.step == -1 and _sample(step=7).step == 7
        assert s == Sample(1.0, "W", "T", 0, "n0", "looptime", 2.5)
        assert s.scalar() == 2.5

    def test_stream_step_fields_and_keyword_construction(self):
        rec = StreamStep(step=3, data={"a": 1}, time=9.0)
        assert StreamStep._fields == ("step", "data", "time")
        assert (rec.step, rec.data, rec.time) == (3, {"a": 1}, 9.0)

    @pytest.mark.parametrize("record, field", [(_sample(), "value"),
                                               (StreamStep(0, None, 0.0), "step")])
    def test_assignment_is_rejected(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)


class TestStillUsableWhereTheyAreUsed:
    def test_stream_source_separates_samples_from_raw_payloads(self):
        hub = DataHub()
        src = StreamSource(hub, "ch", "W", "T", var="looptime")
        src.poll(0.0)  # connect
        ch = hub.channel("ch")
        ch.put([_sample(value=1.5), _sample(var="rss_mb"), {"looptime": 99.0}, (1, 2)], 1.0)
        ch.put({"looptime": 3.0, "other": 4.0}, 2.0)
        out = src.poll(2.0)
        assert [(s.value, s.rank, s.step) for s in out] == [(1.5, 0, -1), (3.0, -1, 1)]
        assert all(type(s) is Sample for s in out)

    def test_a_process_is_an_event_other_processes_wait_on(self):
        eng = SimEngine()
        seen = []

        def child():
            yield eng.timeout(2.0)
            return "done"

        def parent():
            value = yield eng.process(child(), "child")
            seen.append((eng.now, value))

        eng.process(parent(), "parent")
        eng.run()
        assert seen == [(2.0, "done")]
