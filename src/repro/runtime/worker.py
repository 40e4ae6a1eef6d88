"""The worker process: pop frames, decode ids, apply service time.

A worker owns the consumer side of one :class:`~repro.runtime.ring.SpscRing`
and a *replica* of the source's :class:`~repro.workloads.columnar.
KeyDictionary`, kept in sync by deltas the source sends over a per-worker
pipe **before** any frame that needs them.  The hot path never unpickles:
frames are raw ``int64`` arrays, and a frame's ``dict_high_water`` header
states how many dictionary entries the worker must have replicated before
decoding — the worker drains its delta pipe until it catches up (the pipe
is also drained opportunistically while idle, so a source blocked on a full
delta pipe cannot deadlock against a worker blocked on an empty ring).

Per-message *service time* models the downstream operator's real work
(state-store writes, network calls): the worker sleeps
``service_ns * len(frame)`` per frame.  Sleeping blocks the worker, not the
CPU — which is exactly what makes multi-worker scaling observable on the
single-core containers this runtime is benchmarked on (see
``docs/runtime.md``).

Fault injection rides in as a :class:`~repro.runtime.faults.WorkerFaults`
programme (parsed from a :class:`~repro.runtime.faults.FaultPlan` spec in
the coordinator): deterministic crash/hang trigger points in processed
messages, a service-time multiplier, and a dictionary-delta drop count that
provokes the replica's gap detector — the supervised-recovery test matrix.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ClusterRuntimeError
from repro.runtime.faults import CRASH_EXIT_CODE, WorkerFaults
from repro.runtime.ring import SpscRing, read_poller
from repro.runtime.state import SharedClusterState

#: How many of a worker's hottest keys are reported back (decoded through
#: the dictionary replica — the e2e proof that delta sync works).
TOP_KEYS = 5

#: The source sends a frame's dictionary delta strictly *before* the frame
#: itself, over an ordered pipe — so a worker that popped a frame and still
#: cannot cover its high water after this long has lost a delta, not met a
#: slow source.  Raising turns a silent starvation deadlock (the worker
#: heartbeats while waiting, so no detector fires) into a protocol error
#: the supervisor answers with a respawn and a full dictionary replay.
DELTA_STARVATION_TIMEOUT_S = 2.0


@dataclass(slots=True)
class WorkerResult:
    """What one worker reports after draining its ring.

    ``salvaged`` marks a result the *supervisor* synthesized from the
    shared processed ledger because the worker slot could not report for
    itself (crash after the stream closed, or a slot degraded to the
    survivors after its restart budget ran out); ``frames``/``dict_entries``
    /``top_keys``/``empty_polls`` are unknown for such slots and left at
    their zero values.

    ``empty_polls`` counts the times this incarnation polled its ring and
    found nothing — what waiting cost it.  A worker the doorbell wakes
    makes about one per frame; it depends on timing, so it is reported,
    never pinned.
    """

    worker_id: int
    processed: int
    frames: int
    dict_entries: int
    top_keys: list = field(default_factory=list)
    salvaged: bool = False
    empty_polls: int = 0


class DictionaryReplica:
    """The worker-side ``id -> key`` mapping, grown by source deltas."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: list = []

    def __len__(self) -> int:
        return len(self._keys)

    def key_of(self, kid: int):
        return self._keys[kid]

    def apply(self, start_id: int, keys: list) -> None:
        """Apply one delta (idempotent for overlapping resends)."""
        have = len(self._keys)
        if start_id > have:
            raise ClusterRuntimeError(
                f"dictionary delta gap: replica has {have} entries, "
                f"delta starts at {start_id}"
            )
        self._keys.extend(keys[have - start_id :])


def _drain_deltas(
    conn, replica: DictionaryReplica, faults: WorkerFaults | None = None
) -> None:
    """Apply every delta currently buffered in the pipe (non-blocking)."""
    while conn.poll(0):
        kind, start_id, keys = conn.recv()
        if kind != "delta":
            continue
        if faults is not None and faults.take_delta_drop():
            continue  # injected transport fault: swallow the delta
        replica.apply(start_id, keys)


def _await_dictionary(
    conn,
    replica: DictionaryReplica,
    high_water: int,
    state,
    worker_id: int = 0,
    faults: WorkerFaults | None = None,
) -> None:
    """Block until the replica covers ``high_water`` entries.

    Heartbeats while waiting — a worker stalled on a slow delta pipe is
    healthy, and must not trip the monitor's hang detector.  But the wait
    is bounded: the needed delta was sent before the frame that demands it,
    so a pipe that stays silent past ``DELTA_STARVATION_TIMEOUT_S`` means
    the delta is gone and waiting longer would deadlock the slot.
    """
    last_progress = time.monotonic()
    while len(replica) < high_water:
        if state.aborted():
            raise ClusterRuntimeError("aborted while awaiting dictionary delta")
        state.heartbeat(worker_id)
        if conn.poll(0.05):
            kind, start_id, keys = conn.recv()
            if kind != "delta":
                continue
            if faults is not None and faults.take_delta_drop():
                continue
            replica.apply(start_id, keys)
            last_progress = time.monotonic()
        elif time.monotonic() - last_progress > DELTA_STARVATION_TIMEOUT_S:
            raise ClusterRuntimeError(
                f"dictionary delta gap: replica holds {len(replica)} of "
                f"{high_water} entries and no delta arrived for "
                f"{DELTA_STARVATION_TIMEOUT_S}s (delta lost in transport?)"
            )


def worker_main(
    worker_id: int,
    ring: SpscRing,
    state: SharedClusterState,
    delta_conn,
    result_conn,
    service_ns: int = 0,
    faults: WorkerFaults | None = None,
) -> None:
    """Entry point of one worker process (run under the fork context).

    ``faults`` is this incarnation's injected fault programme (``None`` in
    production): ``crash_after`` hard-exits the process once that many
    messages are processed, ``hang_after`` stops heartbeating and
    frame-popping forever, ``service_factor`` multiplies the modelled
    service time, and ``drop_deltas`` swallows dictionary deltas to provoke
    the replica's gap detector.
    """
    replica = DictionaryReplica()
    counts = np.zeros(1024, dtype=np.int64)
    processed = 0
    frames = 0
    # Messages popped off the ring but not yet counted as delivered: a pop
    # advances the consumer cursor immediately, so a frame in hand when the
    # worker dies is invisible to the supervisor's ring drain.  It rides
    # along on the error report so the loss ledger stays exact.
    inflight_msgs = 0
    if faults is not None and faults.service_factor > 1:
        service_ns = service_ns * faults.service_factor
    crash_after = faults.crash_after if faults is not None else -1
    hang_after = faults.hang_after if faults is not None else -1

    state.mark_ready(worker_id)
    state.heartbeat(worker_id)
    while not state.started():
        if state.aborted():
            return
        time.sleep(0.0005)

    empty_polls = 0
    delta_ready = read_poller(delta_conn.fileno())

    def idle() -> None:
        nonlocal empty_polls
        empty_polls += 1
        state.heartbeat(worker_id)
        if delta_ready.poll(0):
            _drain_deltas(delta_conn, replica, faults)

    try:
        while True:
            frame = ring.pop(should_abort=state.aborted, idle=idle)
            if frame.is_eof:
                break
            inflight_msgs = int(frame.ids.size)
            if frame.dict_high_water > len(replica):
                _drain_deltas(delta_conn, replica, faults)
                _await_dictionary(
                    delta_conn, replica, frame.dict_high_water, state,
                    worker_id, faults,
                )
            ids = frame.ids
            high = int(ids.max()) + 1 if ids.size else 0
            if high > counts.size:
                counts = np.concatenate(
                    [counts, np.zeros(max(high, 2 * counts.size) - counts.size, dtype=np.int64)]
                )
            np.add.at(counts, ids, 1)
            processed += int(ids.size)
            frames += 1
            if service_ns:
                time.sleep(service_ns * ids.size / 1e9)
            state.add_processed(worker_id, int(ids.size))
            inflight_msgs = 0
            state.heartbeat(worker_id)
            if crash_after >= 0 and processed >= crash_after:
                os._exit(CRASH_EXIT_CODE)
            if hang_after >= 0 and processed >= hang_after:
                # Wedge without dying: no heartbeats, no pops.  A supervisor
                # terminates the process; an unsupervised run aborts.
                while not state.aborted():
                    time.sleep(0.01)
                return
        top_ids = np.argsort(counts)[::-1][:TOP_KEYS]
        top_keys = [
            (replica.key_of(int(kid)), int(counts[kid]))
            for kid in top_ids
            if counts[kid] > 0 and int(kid) < len(replica)
        ]
        result_conn.send(
            (
                "result",
                WorkerResult(
                    worker_id=worker_id,
                    processed=processed,
                    frames=frames,
                    dict_entries=len(replica),
                    top_keys=top_keys,
                    empty_polls=empty_polls,
                ),
            )
        )
    except Exception as error:  # surfaced by the coordinator, not lost
        try:
            result_conn.send(
                (
                    "error",
                    worker_id,
                    repr(error),
                    inflight_msgs,
                    1 if inflight_msgs else 0,
                )
            )
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            result_conn.close()
        except OSError:
            pass
