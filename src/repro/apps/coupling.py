"""In-situ coupling flow control between producers and consumers.

Tightly coupled tasks "run concurrently with input/output dependencies,
potentially affecting performance across workflow tasks" (paper §1).  The
mechanism behind that mutual influence is staging backpressure: a
producer may only run a bounded number of steps ahead of its slowest
*active* consumer.  When the Isosurface analysis is under-provisioned,
Gray-Scott stalls behind it and every task's observed pace rises — the
exact signal the PACE policies react to in §4.4.

Stopped consumers (victims, restarts) deregister so the producer never
blocks on a task that is gone; restarted consumers re-register and catch
up from the newest staged step.
"""

from __future__ import annotations

from repro.util.validation import check_positive


class CouplingRegistry:
    """Tracks, per workflow, who consumes whom and how far each has read."""

    def __init__(self, max_inflight: int = 2) -> None:
        """
        Args:
            max_inflight: steps a producer may run ahead of its slowest
                active consumer (the staging buffer depth).
        """
        check_positive(max_inflight, "max_inflight")
        self.max_inflight = int(max_inflight)
        # producer -> {consumer: last step index the consumer completed}
        self._consumed: dict[str, dict[str, int]] = {}
        self._produced: dict[str, int] = {}  # producer -> last published step

    # -- consumer lifecycle ------------------------------------------------------
    def register_consumer(self, producer: str, consumer: str) -> None:
        """Consumer (re)connects; it is caught up to the current frontier."""
        self._consumed.setdefault(producer, {})[consumer] = self._produced.get(producer, -1)

    def deregister_consumer(self, producer: str, consumer: str) -> None:
        self._consumed.get(producer, {}).pop(consumer, None)

    def deregister_everywhere(self, consumer: str) -> None:
        """Remove *consumer* from every coupling (it stopped)."""
        for consumers in self._consumed.values():
            consumers.pop(consumer, None)

    def active_consumers(self, producer: str) -> list[str]:
        return sorted(self._consumed.get(producer, ()))

    # -- progress -----------------------------------------------------------------
    def mark_produced(self, producer: str, step: int) -> None:
        self._produced[producer] = max(self._produced.get(producer, -1), step)

    def mark_consumed(self, producer: str, consumer: str, step: int) -> None:
        consumers = self._consumed.get(producer, ())
        if consumer in consumers:
            consumers[consumer] = max(consumers[consumer], step)

    def slowest_consumer_step(self, producer: str) -> int | None:
        """Smallest consumed step among active consumers (None if none)."""
        consumers = self._consumed.get(producer)
        return min(consumers.values()) if consumers else None

    def can_publish(self, producer: str, step: int) -> bool:
        """May *producer* publish *step* now, or must it wait?

        Publishing is allowed when every active consumer is within
        ``max_inflight`` steps; with no active consumers there is no
        backpressure (output lands in the staging buffer / on disk).
        """
        slowest = self.slowest_consumer_step(producer)
        if slowest is None:
            return True
        return step - slowest <= self.max_inflight

    def clear(self) -> None:
        self._consumed.clear()
        self._produced.clear()
