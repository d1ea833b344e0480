"""Per-task instrumentation publishing measurement streams."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.profiler.counters import CounterModel
from repro.staging.serialization import Sample
from repro.staging.stream import StreamChannel


class TaskProfiler:
    """Publishes per-rank measurements for one task into a stream channel.

    One profiler instance lives with one running task instance; when the
    task restarts, a fresh profiler is attached to the (reopened) channel.
    Variables follow TAU naming used in the paper's XML: ``looptime`` for
    the main-iteration time, plus any counter-model outputs.
    """

    def __init__(
        self,
        workflow_id: str,
        task: str,
        channel: StreamChannel,
        rank_nodes: Mapping[int, str],
        counters: CounterModel | None = None,
    ) -> None:
        self.workflow_id = workflow_id
        self.task = task
        self.channel = channel
        self.rank_nodes = dict(rank_nodes)
        # Rank r's node at index r (gaps are ""), built once per incarnation;
        # a rank outside it falls back to the mapping.
        top = max(self.rank_nodes, default=-1)
        self._nodes = [self.rank_nodes.get(rank, "") for rank in range(top + 1)]
        self.counters = counters
        self._steps_published = 0

    @property
    def steps_published(self) -> int:
        return self._steps_published

    def emit_step(
        self,
        time: float,
        step: int,
        loop_times: Mapping[int, float],
        extra_vars: Mapping[str, Mapping[int, float]] | None = None,
    ) -> list[Sample]:
        """Publish one application step's measurements.

        Args:
            time: publish timestamp.
            step: application step index.
            loop_times: per-rank main-loop seconds for this step.
            extra_vars: optional additional per-rank variables.

        Returns the samples published (also pushed into the channel as one
        stream step, matching TAU's one-ADIOS2-step-per-iteration output).
        """
        per_var = [("looptime", loop_times)]
        if self.counters is not None:
            instr, cycles = self.counters.counters_for_step(loop_times)
            per_var += [("PAPI_TOT_INS", instr), ("PAPI_TOT_CYC", cycles)]
        if extra_vars:
            per_var += extra_vars.items()
        ordered = [(var, sorted(per_rank.items())) for var, per_rank in per_var]
        return self._publish(time, step, ordered)

    def emit_ranked(
        self,
        time: float,
        step: int,
        loop_times: Sequence[float],
        extra_vars: Mapping[str, Sequence[float]] | None = None,
    ) -> list[Sample]:
        """:meth:`emit_step` for values already in rank order.

        Entry *r* of ``loop_times`` and of each ``extra_vars`` list is rank
        *r*'s value, so nothing is keyed by rank and nothing is sorted.
        """
        per_var = [("looptime", enumerate(loop_times))]
        if self.counters is not None:
            instr, cycles = self.counters.counters_for_step(dict(enumerate(loop_times)))
            per_var += [("PAPI_TOT_INS", instr.items()), ("PAPI_TOT_CYC", cycles.items())]
        if extra_vars:
            per_var += [(var, enumerate(values)) for var, values in extra_vars.items()]
        return self._publish(time, step, per_var)

    def _publish(
        self, time: float, step: int, per_var: list[tuple[str, Iterable[tuple[int, float]]]]
    ) -> list[Sample]:
        """Build one step's samples from ``(var, (rank, value) pairs in rank
        order)``, push them as one stream step and return them."""
        wf, task, nodes, node_of = self.workflow_id, self.task, self._nodes, self.rank_nodes.get
        n = len(nodes)
        samples = [
            Sample(time, wf, task, rank, nodes[rank] if 0 <= rank < n else node_of(rank, ""),
                   var, float(value), step)
            for var, pairs in per_var
            for rank, value in pairs
        ]
        self.channel.put(samples, time)
        self._steps_published += 1
        return samples
