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
from repro.elasticity.events import RescaleEvent
from repro.elasticity.policies import RescalePolicy, get_policy
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
        # Construction and rescale are the sender group's; emission is not:
        # these sources pull keys on credit, they are not dealt a stream.
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
        # Every queue that ever served, in spawn order: the initial workers
        # followed by mid-run joiners.  Retired queues stay here (with their
        # retired_at stamped) so the utilization report covers the whole
        # fleet, not just the survivors.
        self._all_workers = list(self._workers)
        self._events = EventQueue()
        self._latency = LatencyCollector(topology.num_workers)
        self._load = LoadTracker(topology.num_workers)
        # Elasticity: the same plans the routing simulation replays, with
        # queue drain (leave) / in-flight loss (fail) on the worker side.
        plan = topology.rescale_plan
        self._pending_rescales: list[RescaleEvent] = list(plan.events) if plan else []
        self._rescale_policy: RescalePolicy | None = (
            get_policy(plan.policy) if plan else None
        )
        self._rescales_applied = 0
        self._messages_drained = 0
        self._messages_lost = 0

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
                # Apply any rescale event due at this emission offset
                # (offsets count emitted messages).
                rescales = self._pending_rescales
                while rescales and rescales[0].offset <= emitted:
                    self._apply_rescale(rescales.pop(0), event.time)
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
                worker.utilization(duration) for worker in self._all_workers
            ],
            imbalance=self._load.imbalance(),
            rescale_events=self._rescales_applied,
            messages_drained=self._messages_drained,
            messages_lost=self._messages_lost,
        )

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def _apply_rescale(self, event: RescaleEvent, now: float) -> None:
        """Replay one join/leave/fail on the running cluster.

        Every source's partitioner rescales under the plan's policy; the
        worker side follows: a join adds an idle queue, a leave retires the
        highest-id worker after its queue drains (tuples already enqueued
        complete and are handed off — counted as drained).  A fail counts
        the dead worker's backlog as ``messages_lost`` but keeps those
        completions on the timeline: the replayed copies would occupy the
        same capacity the originals did, so the schedule stands in for the
        replay and the completed/throughput/latency totals include that
        replay work (no event-heap rewriting, sources re-credit on the
        original completion times).
        """
        policy = self._rescale_policy
        assert policy is not None  # only called when a plan exists
        old_num_workers = len(self._workers)
        new_num_workers = event.new_num_workers(old_num_workers)
        if new_num_workers < 1:  # validated at topology time; defensive
            raise SimulationError(
                f"rescale event {event.spec} would drop below 1 worker"
            )
        self._group.rescale(policy, new_num_workers)
        if new_num_workers > old_num_workers:
            joiner = WorkerQueue(
                service_time_ms=self._topology.service_time_ms, started_at=now
            )
            self._workers.append(joiner)
            self._all_workers.append(joiner)
        else:
            queue = self._workers.pop()
            # The active window closes when the backlog does: a leaver keeps
            # servicing until drained, and a failed worker's backlog stays on
            # the timeline as the replay stand-in (see docstring above), so
            # both windows extend to busy_until.
            queue.retired_at = max(now, queue.busy_until)
            backlog = 0
            if queue.busy_until > now:
                backlog = int(
                    -(-(queue.busy_until - now) // queue.service_time_ms)
                )
            if event.loses_state:
                self._messages_lost += backlog
            else:
                self._messages_drained += backlog
        self._load.rescale(new_num_workers)
        self._latency.rescale(new_num_workers)
        self._rescales_applied += 1

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
