"""Per-task instrumentation publishing measurement streams."""

from __future__ import annotations

from collections.abc import Mapping

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
        self.counters = counters
        self._steps_published = 0

    @property
    def nranks(self) -> int:
        return len(self.rank_nodes)

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
        wf, task, node_of = self.workflow_id, self.task, self.rank_nodes.get
        per_var = [("looptime", loop_times)]
        if self.counters is not None:
            instr, cycles = self.counters.counters_for_step(loop_times)
            per_var += [("PAPI_TOT_INS", instr), ("PAPI_TOT_CYC", cycles)]
        if extra_vars:
            per_var += extra_vars.items()
        samples = [
            Sample(time, wf, task, rank, node_of(rank, ""), var, float(value), step)
            for var, per_rank in per_var
            for rank, value in sorted(per_rank.items())
        ]
        self.channel.put(samples, time)
        self._steps_published += 1
        return samples
