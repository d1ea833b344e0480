"""The envelope codec must be byte-identical to the canonical one.

``Envelope.to_json`` encodes through one shared ``json.JSONEncoder`` and
keeps a memo of the encoded string plus an advisory decoded-objects
cache.  Every byte it emits must match
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` exactly —
the journal hashes these strings, so a single byte of drift silently
breaks crash-resume fingerprints.  Sensor-update payloads
(``{"updates": [...]}``) are the shape the journal carries, so they get
the most cases.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.core.monitor import MetricUpdate
from repro.util.jsonmsg import Envelope


def canonical(env: Envelope) -> str:
    return json.dumps(
        {"kind": env.kind, "payload": env.payload, "sender": env.sender,
         "seq": env.seq, "time": env.time},
        sort_keys=True, separators=(",", ":"),
    )


scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),
    st.text(max_size=40),
)

update_dict = st.fixed_dictionaries({
    "granularity": st.text(max_size=10),
    "key": st.lists(st.text(max_size=8), max_size=3),
    "sensor_id": st.text(max_size=10),
    "step": st.one_of(st.none(), st.integers(0, 10**6)),
    "task": st.text(max_size=20),
    "time": st.floats(0, 1e9, allow_nan=False),
    "value": st.floats(allow_nan=False),
    "var": st.one_of(st.none(), st.text(max_size=10)),
    "workflow_id": st.text(max_size=20),
})


class TestByteEquality:
    @given(st.lists(update_dict, max_size=5), st.text(max_size=20),
           st.integers(0, 10**9), st.floats(0, 1e9, allow_nan=False))
    def test_update_payloads(self, updates, sender, seq, time):
        env = Envelope(kind="sensor-update", sender=sender, seq=seq,
                       time=time, payload={"updates": updates})
        assert env.to_json() == canonical(env)

    @given(st.dictionaries(st.text(max_size=10), scalar, max_size=4))
    def test_arbitrary_payloads(self, payload):
        env = Envelope(kind="k", sender="s", seq=0, time=0.0, payload=payload)
        assert env.to_json() == canonical(env)

    def test_nonfinite_floats_match_json_dumps(self):
        for value in (float("inf"), float("-inf"), float("nan")):
            env = Envelope(kind="sensor-update", sender="s", seq=0, time=1.0,
                           payload={"updates": [{"granularity": "task",
                                                 "key": ["k"], "sensor_id": "S",
                                                 "step": 1, "task": "T",
                                                 "time": 1.0, "value": value,
                                                 "var": None,
                                                 "workflow_id": "W"}]})
            assert env.to_json() == canonical(env)

    def test_extra_or_missing_update_fields(self):
        # Update dicts that are not exactly MetricUpdate.to_dict()'s shape.
        for d in (
            {"task": "T"},
            # a non-list key
            {"granularity": "g", "key": "k", "sensor_id": "s", "step": 0,
             "task": "T", "time": 0.0, "value": 1.0, "var": None,
             "workflow_id": "W"},
            {"granularity": "g", "key": ["k"], "sensor_id": "s", "step": 0,
             "task": "T", "time": 0.0, "value": 1.0, "var": None,
             "workflow_id": "W", "extra": 1},
        ):
            env = Envelope(kind="sensor-update", sender="s", seq=0, time=0.0,
                           payload={"updates": [d]})
            assert env.to_json() == canonical(env)

    def test_escaped_strings(self):
        env = Envelope(kind="sensor-update", sender='cli"ent\n\\x',
                       seq=0, time=0.0,
                       payload={"updates": [{"granularity": "täsk",
                                             "key": ['a"b'], "sensor_id": "S",
                                             "step": None, "task": "\t",
                                             "time": 0.5, "value": 2.0,
                                             "var": "looptime",
                                             "workflow_id": "W"}]})
        assert env.to_json() == canonical(env)
        assert Envelope.from_json(env.to_json()) == env


class TestMemoization:
    def test_to_json_is_cached(self):
        env = Envelope(kind="k", sender="s", seq=1, time=2.0, payload={"a": 1})
        assert env.to_json() is env.to_json()

    def test_round_trip_of_memoized_string(self):
        env = Envelope(kind="sensor-update", sender="s", seq=3, time=4.5,
                       payload={"updates": [{"granularity": "task", "key": "T",
                                             "sensor_id": "S", "step": 2,
                                             "task": "T", "time": 4.0,
                                             "value": 1.5, "var": "looptime",
                                             "workflow_id": "W"}]})
        assert Envelope.from_json(env.to_json()) == env


class TestDecodedCache:
    def make_env(self):
        up = MetricUpdate(sensor_id="S", workflow_id="W", granularity="task",
                          key=("T",), task="T", var="looptime", value=1.0,
                          time=2.0, step=1)
        env = Envelope(kind="sensor-update", sender="c/S", seq=0, time=2.0,
                       payload={"updates": [up.to_dict()]})
        return env, up

    def test_attach_and_read_back(self):
        env, up = self.make_env()
        assert env.decoded() is None
        env.attach_decoded((up,))
        assert env.decoded() == (up,)

    def test_cache_does_not_survive_serialization(self):
        # The cache is in-process advisory state: a wire/journal round
        # trip must rebuild objects from the payload, not trust a stale
        # cache.
        env, up = self.make_env()
        env.attach_decoded((up,))
        back = Envelope.from_json(env.to_json())
        assert back.decoded() is None
        assert back == env

    def test_cached_objects_match_payload_decode(self):
        env, up = self.make_env()
        env.attach_decoded((up,))
        rebuilt = [MetricUpdate.from_dict(d) for d in env.payload["updates"]]
        assert list(env.decoded()) == rebuilt
