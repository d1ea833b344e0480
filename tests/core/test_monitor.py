"""Tests for the Monitor client/server stages."""

import weakref

import pytest

from repro.cluster.machine import MachinePerf
from repro.core import MonitorClient, MonitorServer
from repro.core.sensors import (
    DiskScanSource,
    GroupBySpec,
    JoinSpec,
    SensorInstance,
    SensorSpec,
    StreamSource,
)
from repro.errors import SensorError
from repro.staging import DataHub, Sample
from repro.util import Envelope


def mk_sample(task="T", var="looptime", value=1.0, rank=0, step=0, time=0.0):
    return Sample(time=time, workflow_id="W", task=task, rank=rank, node_id="n0",
                  var=var, value=value, step=step)


def bind(client, hub, sensor_spec, task, channel, var=None):
    src = StreamSource(hub, channel, "W", task, var=var)
    inst = SensorInstance(spec=sensor_spec, workflow_id="W", task=task, source=src)
    client.add_binding(inst)
    return inst


class TestMonitorClient:
    def test_a_poll_that_raises_is_polled_again_next_round(self):
        """Replacing the bad file is no creation, so nothing would wake
        the scan: the failed round leaves it marked instead."""
        hub = DataHub()
        fs = hub.filesystem
        client = MonitorClient("c0", MachinePerf())
        scan = DiskScanSource(fs, "out/T.*", "W", "T")
        client.add_binding(SensorInstance(SensorSpec("SCAN", "DISKSCAN"), "W", "T", scan))
        client.collect(0.0)
        fs.write("out/T.0", None, 1.0)  # no step to report
        with pytest.raises(SensorError):
            client.collect(1.0)
        fs.write("out/T.0", None, 1.5, step=0)
        [(_lag, env)] = client.collect(2.0)
        assert [u["value"] for u in env.payload["updates"]] == [1.0]

    def test_collect_emits_one_envelope_per_sensor(self):
        hub = DataHub()
        client = MonitorClient("c0", MachinePerf())
        pace = SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),))
        bind(client, hub, pace, "A", "tau-W-A", var="looptime")
        bind(client, hub, pace, "B", "tau-W-B", var="looptime")
        client.collect(0.0)  # connect
        hub.channel("tau-W-A").put([mk_sample(task="A", value=2.0)], 1.0)
        hub.channel("tau-W-B").put([mk_sample(task="B", value=3.0)], 1.0)
        out = client.collect(1.0)
        assert len(out) == 1  # one envelope for sensor PACE
        lag, env = out[0]
        assert lag == MachinePerf().stream_read_lag
        tasks = {u["task"] for u in env.payload["updates"]}
        assert tasks == {"A", "B"}

    def test_sequence_numbers_increase(self):
        hub = DataHub()
        client = MonitorClient("c0", MachinePerf())
        pace = SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),))
        bind(client, hub, pace, "A", "ch", var="looptime")
        client.collect(0.0)
        seqs = []
        for t in (1.0, 2.0, 3.0):
            hub.channel("ch").put([mk_sample(value=t, time=t)], t)
            out = client.collect(t)
            seqs.append(out[0][1].seq)
        assert seqs == [0, 1, 2]

    def test_empty_round_no_envelopes(self):
        client = MonitorClient("c0", MachinePerf())
        assert client.collect(0.0) == []

    def test_join_produces_derived_metric(self):
        """IPC = instructions / cycles, the paper's joined-sensor example."""
        hub = DataHub()
        client = MonitorClient("c0", MachinePerf())
        ins = SensorSpec("INS", "TAUADIOS2", (GroupBySpec("task", "SUM"),),
                         join=JoinSpec("CYC", "DIV"))
        cyc = SensorSpec("CYC", "TAUADIOS2", (GroupBySpec("task", "SUM"),))
        bind(client, hub, ins, "A", "tau-W-A", var="PAPI_TOT_INS")
        bind(client, hub, cyc, "A", "tau-W-A", var="PAPI_TOT_CYC")
        client.collect(0.0)
        hub.channel("tau-W-A").put([
            mk_sample(var="PAPI_TOT_INS", value=8e9),
            mk_sample(var="PAPI_TOT_CYC", value=4e9),
        ], 1.0)
        out = client.collect(1.0)
        by_sensor = {env.sender.split("/")[-1]: env for _lag, env in out}
        ipc = by_sensor["INS"].payload["updates"][0]
        assert ipc["value"] == pytest.approx(2.0)

    def test_join_without_partner_data_emits_nothing(self):
        hub = DataHub()
        client = MonitorClient("c0", MachinePerf())
        ins = SensorSpec("INS", "TAUADIOS2", (GroupBySpec("task", "SUM"),),
                         join=JoinSpec("CYC", "DIV"))
        bind(client, hub, ins, "A", "chan", var="PAPI_TOT_INS")
        client.collect(0.0)
        hub.channel("chan").put([mk_sample(var="PAPI_TOT_INS", value=1e9)], 1.0)
        assert client.collect(1.0) == []

    def test_on_task_restart_reconnects_bindings(self):
        hub = DataHub()
        client = MonitorClient("c0", MachinePerf())
        pace = SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),))
        inst = bind(client, hub, pace, "A", "ch", var="looptime")
        client.collect(0.0)
        reader_before = inst.source._reader
        client.on_task_restart("A")
        assert inst.source._reader is not None
        assert inst.source._reader is not reader_before

    def test_restarts_leave_one_reader_on_the_channel(self):
        """The channel used to keep every reader ever opened on it."""
        hub = DataHub()
        client = MonitorClient("c0", MachinePerf())
        pace = SensorSpec("PACE", "TAUADIOS2", (GroupBySpec("task", "MAX"),))
        inst = bind(client, hub, pace, "A", "ch", var="looptime")
        client.collect(0.0)
        first = weakref.ref(inst.source._reader)
        for _ in range(5):
            client.on_task_restart("A")
        channel = hub.channel("ch")
        assert channel._watchers == [inst.source._reader]
        assert first() is None
        inst.source.restore_cursor({"connected": False})
        assert channel._watchers == []


class TestMonitorServer:
    def _env(self, seq, updates=None, kind="sensor-update", sender="c0/PACE"):
        return Envelope(kind=kind, sender=sender, seq=seq, time=0.0,
                        payload={"updates": updates or []})

    def _update_dict(self, value=1.0):
        return {
            "sensor_id": "PACE", "workflow_id": "W", "task": "A",
            "granularity": "task", "key": ["A"], "value": value,
            "time": 0.0, "step": 0, "var": "looptime",
        }

    def test_forwards_to_sink(self):
        got = []
        server = MonitorServer(on_updates=got.extend)
        server.receive(self._env(0, [self._update_dict(5.0)]))
        assert len(got) == 1 and got[0].value == 5.0

    def test_out_of_order_dropped(self):
        got = []
        server = MonitorServer(on_updates=got.extend)
        server.receive(self._env(1, [self._update_dict(1.0)]))
        assert server.receive(self._env(0, [self._update_dict(2.0)])) == []
        assert server.dropped == 1
        assert len(got) == 1

    def test_restart_resets_epochs(self):
        server = MonitorServer()
        server.receive(self._env(5, [self._update_dict()]))
        assert server.receive(self._env(0, [self._update_dict()])) == []
        server.on_task_restart("A")
        assert len(server.receive(self._env(0, [self._update_dict()]))) == 1

    def test_wrong_kind_rejected(self):
        server = MonitorServer()
        with pytest.raises(SensorError):
            server.receive(self._env(0, kind="gossip"))

    def test_history_recording(self):
        server = MonitorServer(record_history=True)
        server.receive(self._env(0, [self._update_dict(1.0), self._update_dict(2.0)]))
        assert [u.value for u in server.history] == [1.0, 2.0]


class TestMonitorServerAccounting:
    """Dropped/received/forwarded counters and last-seen liveness times."""

    def _env(self, seq, updates=None, sender="c0/PACE", time=0.0):
        return Envelope(kind="sensor-update", sender=sender, seq=seq, time=time,
                        payload={"updates": updates or []})

    def _update_dict(self, value=1.0):
        return {
            "sensor_id": "PACE", "workflow_id": "W", "task": "A",
            "granularity": "task", "key": ["A"], "value": value,
            "time": 0.0, "step": 0, "var": "looptime",
        }

    def test_dropped_accounting_per_sender(self):
        server = MonitorServer()
        server.receive(self._env(3, [self._update_dict()], sender="c0/PACE"))
        server.receive(self._env(3, [self._update_dict()], sender="c1/PACE"))
        # Stale envelopes from either sender are dropped and counted.
        assert server.receive(self._env(1, [self._update_dict()], sender="c0/PACE")) == []
        assert server.receive(self._env(2, [self._update_dict()], sender="c1/PACE")) == []
        assert server.dropped == 2
        assert server.received == 4
        assert server.forwarded == 2

    def test_sequence_gaps_are_accepted_not_dropped(self):
        # A lossy transport (chaos msg-drop) leaves gaps; the filter only
        # rejects regressions, so gaps don't inflate the dropped counter.
        server = MonitorServer()
        server.receive(self._env(0, [self._update_dict()]))
        assert len(server.receive(self._env(7, [self._update_dict()]))) == 1
        assert server.dropped == 0
        assert server.forwarded == 2

    def test_last_seen_tracks_accepted_envelopes_only(self):
        server = MonitorServer()
        server.receive(self._env(0, [self._update_dict()], time=3.0))
        assert server.last_seen["A"] == 3.0
        server.receive(self._env(2, [self._update_dict()], time=8.0))
        assert server.last_seen["A"] == 8.0
        # Out-of-order envelope is dropped: last_seen must not move.
        server.receive(self._env(1, [self._update_dict()], time=99.0))
        assert server.last_seen["A"] == 8.0

    def test_last_seen_empty_payload_untouched(self):
        server = MonitorServer()
        server.receive(self._env(0, [], time=5.0))
        assert server.last_seen == {}
