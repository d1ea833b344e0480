"""A registry's journaled stream positions: draw counts, or full states.

A stream drawn only through ``RngRegistry.random`` is journaled as its
draw count and reloaded as its named seed advanced by that many PCG64
steps; a stream handed out by ``stream()`` can be drawn from in any way,
so it keeps its full generator state, and so does every stream of an
older journal.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry

NAMES = ("a", "b", "fabric:c0:net")


@settings(max_examples=60)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(NAMES), max_size=60),
       st.integers(0, 1000))
def test_draw_counts_reload_to_the_same_next_draws(seed, draws, skip):
    reg = RngRegistry(seed)
    for name in draws:
        reg.random(name)
    reg.random("far")
    for _ in range(skip):  # far enough that a wrong count shows
        reg.random("far")
    state = json.loads(json.dumps(reg.state_dict()))  # as the journal holds it
    assert state["streams"] == {}
    assert sum(state["draws"].values()) == len(draws) + skip + 1
    fresh = RngRegistry(seed)
    fresh.load_state_dict(state)
    assert fresh.state_dict() == state
    for name in (*NAMES, "far"):
        assert [fresh.random(name) for _ in range(3)] == [reg.random(name) for _ in range(3)]


def test_a_count_loads_over_a_stream_already_drawn():
    reg, other = RngRegistry(5), RngRegistry(5)
    for _ in range(4):
        reg.random("x")
    other.random("x")  # a different position, to be overwritten
    other.load_state_dict(reg.state_dict())
    assert other.state_dict() == reg.state_dict()
    assert other.random("x") == reg.random("x")


def test_a_stream_handed_out_keeps_its_full_state():
    reg = RngRegistry(3)
    reg.random("s")
    gen = reg.stream("s")
    gen.normal(size=2)  # any draw: not countable
    reg.random("s")
    state = reg.state_dict()
    assert "draws" not in state
    assert state["streams"]["s"] == gen.bit_generator.state
    fresh = RngRegistry(3)
    fresh.load_state_dict(state)
    assert fresh.random("s") == reg.random("s")
    assert "draws" not in fresh.state_dict()  # a full state stays full


def test_a_count_loaded_into_a_handed_out_stream_keeps_it_full():
    reg = RngRegistry(9)
    for _ in range(3):
        reg.random("s")
    held = RngRegistry(9)
    gen = held.stream("s")
    held.load_state_dict(reg.state_dict())
    assert gen.random() == reg.random("s")  # moved in place: the holder sees it
    assert held.state_dict()["streams"]["s"] == gen.bit_generator.state


def test_an_older_full_state_still_loads():
    old = RngRegistry(11)
    gen = old.stream("fabric:c0:drop")
    gen.random(7)
    state = {"seed": 11, "streams": {"fabric:c0:drop": gen.bit_generator.state}}
    fresh = RngRegistry(11)
    fresh.load_state_dict(json.loads(json.dumps(state)))
    assert [fresh.random("fabric:c0:drop") for _ in range(3)] == list(gen.random(3))
