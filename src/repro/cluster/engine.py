"""Discrete-event engine for the Storm-like cluster simulation.

The engine models the two-operator topology of the paper's Q4 experiment:

* Sources pull keys from the workload, one at a time, paying
  ``source_overhead_ms`` per emission.  Each source may have at most
  ``max_pending_per_source`` unacknowledged messages in flight (credit-based
  flow control, like Storm's ``max.spout.pending``).
* A message is routed by the source's partitioner to one worker, where it
  queues behind every earlier message of that worker and is serviced for
  ``service_time_ms``.
* When the worker finishes a message, the originating source is credited and
  may emit again.

Throughput is completed messages per simulated second; latency is completion
time minus emission time.  Skewed groupings overload a few workers whose
queues (bounded by the total credit of all sources) dominate both metrics —
the same mechanism as in the real deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.cluster.events import EventQueue, EventType
from repro.cluster.latency import LatencyCollector
from repro.cluster.queues import WorkerQueue
from repro.cluster.results import ClusterResult
from repro.cluster.topology import ClusterTopology
from repro.exceptions import SimulationError
from repro.execution import SenderGroup
from repro.partitioning.base import Partitioner
from repro.partitioning.registry import canonical_name
from repro.simulation.metrics import LoadTracker
from repro.types import Key


@dataclass(slots=True)
class _SourceState:
    """Book-keeping for one source."""

    partitioner: Partitioner
    pending: int = 0
    #: Earliest time the source can emit its next message (emission is
    #: sequential: one message per ``source_overhead_ms``).
    next_free: float = 0.0
    #: Whether a SOURCE_EMIT event for this source is already scheduled.
    emit_scheduled: bool = False
    emitted: int = 0


class ClusterEngine:
    """Runs one grouping scheme on the simulated cluster.

    Examples
    --------
    >>> from repro.cluster.topology import ClusterTopology
    >>> topology = ClusterTopology(scheme="SG", num_sources=2, num_workers=4,
    ...                            source_overhead_ms=1.0)
    >>> engine = ClusterEngine(topology)
    >>> result = engine.run(["a", "b", "c", "d"] * 50)
    >>> result.num_messages
    200
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self._topology = topology
        self._scheme = canonical_name(topology.scheme)
        # Construction is the sender group's; emission is not: these
        # sources pull keys on credit, they are not dealt a stream.
        self._group = SenderGroup.build(
            self._scheme,
            topology.num_sources,
            topology.num_workers,
            seed=topology.seed,
            **topology.scheme_options,
        )
        self._sources = [
            _SourceState(partitioner=partitioner)
            for partitioner in self._group.partitioners
        ]
        self._workers = [
            WorkerQueue(service_time_ms=topology.service_time_ms)
            for _ in range(topology.num_workers)
        ]
        self._events = EventQueue()
        self._latency = LatencyCollector(topology.num_workers)
        self._load = LoadTracker(topology.num_workers)

    @property
    def topology(self) -> ClusterTopology:
        return self._topology

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, keys: Iterable[Key]) -> ClusterResult:
        """Process the whole workload and return throughput/latency results."""
        key_iterator: Iterator[Key] = iter(keys)
        exhausted = False
        completed = 0
        emitted = 0
        last_completion = 0.0

        # Kick off: every source tries to emit at time 0.
        for index, source in enumerate(self._sources):
            self._events.push(0.0, EventType.SOURCE_EMIT, index)
            source.emit_scheduled = True

        while self._events:
            event = self._events.pop()
            if event.event_type is EventType.SOURCE_EMIT:
                source_index: int = event.payload
                source = self._sources[source_index]
                source.emit_scheduled = False
                if exhausted:
                    continue
                if source.pending >= self._topology.max_pending_per_source:
                    # Out of credit; the ack handler will reschedule.
                    continue
                try:
                    key = next(key_iterator)
                except StopIteration:
                    exhausted = True
                    continue
                emitted += 1
                completion = self._emit(source_index, source, key, event.time)
                last_completion = max(last_completion, completion)
            elif event.event_type is EventType.WORKER_DONE:
                source_index = event.payload
                source = self._sources[source_index]
                source.pending -= 1
                completed += 1
                if not exhausted and not source.emit_scheduled:
                    self._schedule_emit(source, event.time, source_index)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event type {event.event_type}")

        if emitted == 0:
            raise SimulationError("cannot run the cluster on an empty workload")

        duration = max(last_completion, 1e-9)
        throughput = completed / (duration / 1000.0)
        return ClusterResult(
            scheme=self._scheme,
            num_messages=completed,
            duration_ms=duration,
            throughput_per_second=throughput,
            latency=self._latency.stats(),
            worker_utilization=[
                worker.utilization(duration) for worker in self._workers
            ],
            imbalance=self._load.imbalance(),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _emit(
        self, source_index: int, source: _SourceState, key: Key, now: float
    ) -> float:
        """Route one message from ``source`` at ``now``; returns its completion time."""
        topology = self._topology
        worker_id = source.partitioner.route(key)
        self._load.record(worker_id)
        completion = self._workers[worker_id].enqueue(now)
        self._latency.record(worker_id, completion - now)
        self._events.push(completion, EventType.WORKER_DONE, source_index)
        source.pending += 1
        source.emitted += 1
        source.next_free = now + topology.source_overhead_ms
        # Schedule the source's next emission if it still has credit.
        if source.pending < topology.max_pending_per_source:
            self._schedule_emit(source, source.next_free, source_index)
        return completion

    def _schedule_emit(
        self, source: _SourceState, now: float, source_index: int
    ) -> None:
        if source.emit_scheduled:
            return
        emit_time = max(now, source.next_free)
        self._events.push(emit_time, EventType.SOURCE_EMIT, source_index)
        source.emit_scheduled = True
