"""Worker queue model for the cluster simulation.

Each worker is a single server with a FIFO queue and deterministic service
time.  The engine only needs to know *when the worker will finish* the
message being enqueued, so the queue is modelled by its busy-until timestamp
instead of an explicit list of waiting messages — an exact equivalence for
FIFO single-server queues with deterministic service times, and much faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(slots=True)
class WorkerQueue:
    """State of one worker's input queue.

    Attributes
    ----------
    service_time_ms:
        Deterministic per-message processing time.
    busy_until:
        Simulated time at which the worker becomes idle given everything
        enqueued so far.
    completed:
        Number of messages fully processed.
    busy_time:
        Total time spent servicing messages (for utilisation reporting).
    """

    service_time_ms: float
    busy_until: float = 0.0
    completed: int = 0
    busy_time: float = 0.0

    def __post_init__(self) -> None:
        if self.service_time_ms <= 0.0:
            raise ConfigurationError(
                f"service_time_ms must be positive, got {self.service_time_ms}"
            )

    def enqueue(self, arrival_time: float) -> float:
        """Enqueue a message arriving at ``arrival_time``.

        Returns the completion time of that message.  Queueing delay is
        ``max(0, busy_until - arrival_time)``.
        """
        start = max(arrival_time, self.busy_until)
        completion = start + self.service_time_ms
        self.busy_until = completion
        self.completed += 1
        self.busy_time += self.service_time_ms
        return completion

    def queue_delay(self, arrival_time: float) -> float:
        """Waiting time a message arriving now would experience."""
        return max(0.0, self.busy_until - arrival_time)

    def utilization(self, horizon: float) -> float:
        """Busy fraction over a run of ``horizon`` ms (0 for an empty run)."""
        if horizon <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
