"""``TaskProfiler.emit_step`` and ``emit_ranked`` against the implementation
they replaced.

The per-call closure that appended keyword-constructed samples is kept
here, test-only, as the reference: same samples in the same order, same
channel contents, for whatever the callers may pass.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.profiler import CounterModel, TaskProfiler
from repro.staging import Sample, StreamChannel

RANK_NODES = {0: "n0", 1: "n0", 2: "n1", 5: "n2"}


def reference_emit_step(prof, time, step, loop_times, extra_vars=None):
    samples = []

    def emit(var, per_rank):
        for rank, value in sorted(per_rank.items()):
            samples.append(
                Sample(
                    time=time,
                    workflow_id=prof.workflow_id,
                    task=prof.task,
                    rank=rank,
                    node_id=prof.rank_nodes.get(rank, ""),
                    var=var,
                    value=float(value),
                    step=step,
                )
            )

    emit("looptime", loop_times)
    if prof.counters is not None:
        instr, cycles = prof.counters.counters_for_step(loop_times)
        emit("PAPI_TOT_INS", instr)
        emit("PAPI_TOT_CYC", cycles)
    for var, per_rank in (extra_vars or {}).items():
        emit(var, per_rank)
    prof.channel.put(samples, time)
    prof._steps_published += 1
    return samples


def _profiler(counters):
    return TaskProfiler("GS", "Iso", StreamChannel("tau", capacity=4), RANK_NODES, counters)


# Ranks 3, 4, 6, 7 are not in RANK_NODES; values are ints as often as floats
# (the float() coercion); dict insertion order is whatever hypothesis draws.
values = st.one_of(st.integers(-10, 10 ** 6), st.floats(allow_nan=False, allow_infinity=False))
per_rank = st.dictionaries(st.integers(0, 7), values, max_size=8)
steps = st.lists(
    st.tuples(st.floats(0, 1e6), st.integers(-1, 10 ** 6), per_rank,
              st.none() | st.dictionaries(st.sampled_from(["rss_mb", "looptime", "x"]),
                                          per_rank, max_size=3)),
    min_size=1, max_size=6,  # more steps than the channel retains
)


@given(steps, st.none() | st.just(CounterModel(clock_ghz=2.0)))
def test_emit_step_equals_the_reference(calls, counters):
    new, ref = _profiler(counters), _profiler(counters)
    for time, step, loop_times, extra_vars in calls:
        got = new.emit_step(time, step, loop_times, extra_vars=extra_vars)
        want = reference_emit_step(ref, time, step, loop_times, extra_vars)
        assert got == want and repr(got) == repr(want)  # repr: -0.0, int vs float
        assert all(type(s) is Sample for s in got)
    assert new.steps_published == ref.steps_published
    assert new.channel.open_reader().drain() == ref.channel.open_reader().drain()
    assert new.channel._retained_range() == ref.channel._retained_range()
    assert new.channel.dropped_steps == ref.channel.dropped_steps


# Rank-ordered lists: entry r is rank r's value (ranks 3, 4, 6, 7 again
# have no node); the extra lists may be shorter or longer than loop_times.
ranked = st.lists(values, max_size=8)
ranked_steps = st.lists(
    st.tuples(st.floats(0, 1e6), st.integers(-1, 10 ** 6), ranked,
              st.none() | st.dictionaries(st.sampled_from(["rss_mb", "looptime", "x"]),
                                          ranked, max_size=3)),
    min_size=1, max_size=6,
)


@given(ranked_steps, st.none() | st.just(CounterModel(clock_ghz=2.0)))
def test_emit_ranked_equals_the_reference_on_the_same_values_keyed_by_rank(calls, counters):
    new, ref = _profiler(counters), _profiler(counters)
    for time, step, loop_times, extra_vars in calls:
        got = new.emit_ranked(time, step, loop_times, extra_vars=extra_vars)
        keyed = None if extra_vars is None else {
            var: dict(enumerate(per_rank)) for var, per_rank in extra_vars.items()}
        want = reference_emit_step(ref, time, step, dict(enumerate(loop_times)), keyed)
        assert got == want and repr(got) == repr(want)
        assert all(type(s) is Sample for s in got)
    assert new.steps_published == ref.steps_published
    assert new.channel.open_reader().drain() == ref.channel.open_reader().drain()
