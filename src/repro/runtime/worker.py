"""The worker process: pop frames, decode ids, apply service time.

A worker owns the consumer side of one :class:`~repro.runtime.ring.SpscRing`
and a *replica* of the source's :class:`~repro.workloads.columnar.
KeyDictionary`, kept in sync by deltas the source sends over a per-worker
pipe **before** any frame that needs them.  The hot path never unpickles:
frames are raw ``int64`` arrays, and a frame's ``dict_high_water`` header
states how many dictionary entries the worker must have replicated before
decoding — the worker drains its delta pipe until it catches up (the pipe
is also drained opportunistically while idle, so a source blocked on a full
delta pipe cannot deadlock against a worker blocked on an empty ring).  The
pipe's readability is asked of one kept ``select.poll``, never of
``Connection.poll``, which builds a selector per call.

Per-message *service time* models the downstream operator's real work
(state-store writes, network calls) and runs on a *service clock*: a frame
of ``k`` messages owes ``service_ns * k`` of blocking sleep, less whatever
the previous sleep overran.  The debt is carried only within a *busy
period* — the frames a worker found without waiting; a pop that found the
ring empty starts a new period with nothing carried, so idle time is never
credited, and neither is the worker's own CPU between sleeps.  A busy
period of ``k`` messages therefore blocks ``service_ns * k`` plus one
timer overrun, however the source framed it, not one overrun per frame.
Sleeping blocks the worker, not the CPU — which is exactly what makes
multi-worker scaling observable on the single-core containers this runtime
is benchmarked on (see ``docs/runtime.md``).

Only the source waits at the start line: a worker closes its inherited
copy of the :class:`~repro.runtime.state.StartGate` write end before it
reports ready and then blocks on its ring, which the source's first push
rings.  The clock still starts after every child reported ready, and at the
release one process wakes, not all of them.  At the other end a worker that
sent its result waits at the *finish line* instead of exiting, so no exit
runs on the cores while peers serve their last frames.

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
from repro.runtime.state import SharedClusterState, StartGate

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
    never pinned.  So are the run's two ends: ``first_frame_ns`` is
    ``time.monotonic_ns()`` when the first data frame was popped (0 if
    none was), and ``last_overrun_ns`` how long the last sleep overran.
    """

    worker_id: int
    processed: int
    frames: int
    dict_entries: int
    top_keys: list = field(default_factory=list)
    salvaged: bool = False
    empty_polls: int = 0
    first_frame_ns: int = 0
    last_overrun_ns: int = 0


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
    conn, ready, replica: DictionaryReplica, faults: WorkerFaults | None = None
) -> None:
    """Apply every delta currently buffered in the pipe (non-blocking).

    ``ready`` is the pipe's kept :func:`~repro.runtime.ring.read_poller`.
    """
    while ready.poll(0):
        kind, start_id, keys = conn.recv()
        if kind != "delta":
            continue
        if faults is not None and faults.take_delta_drop():
            continue  # injected transport fault: swallow the delta
        replica.apply(start_id, keys)


def _await_dictionary(
    conn,
    ready,
    replica: DictionaryReplica,
    high_water: int,
    state,
    worker_id: int = 0,
    faults: WorkerFaults | None = None,
) -> None:
    """Block until the replica covers ``high_water`` entries.

    Heartbeats while waiting — a worker stalled on a slow delta pipe is
    healthy, and must not trip the coordinator's hang check.  But the wait
    is bounded: the needed delta was sent before the frame that demands it,
    so a pipe that stays silent past ``DELTA_STARVATION_TIMEOUT_S`` means
    the delta is gone and waiting longer would deadlock the slot.
    """
    last_progress = time.monotonic()
    while len(replica) < high_water:
        if state.aborted():
            raise ClusterRuntimeError("aborted while awaiting dictionary delta")
        state.heartbeat(worker_id)
        if ready.poll(50):  # milliseconds
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
    start: StartGate | None = None,
    finish: StartGate | None = None,
) -> None:
    """Entry point of one worker process (run under the fork context).

    The worker closes its inherited copies of ``start``'s and ``finish``'s
    write ends (so the source alone waits at the start, and the finish
    opens with the coordinator's copy), beats once, reports ``("ready",)``
    on ``result_conn`` and blocks on its ring: the first frame, not the
    release, wakes it.  A run aborted before the release ends it through
    ``pop``'s abort check.  Once its result is sent it waits at ``finish``;
    an error report exits at once.

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
    if faults is not None and faults.service_factor > 1:
        service_ns = service_ns * faults.service_factor
    crash_after = faults.crash_after if faults is not None else -1
    hang_after = faults.hang_after if faults is not None else -1

    empty_polls = 0
    first_frame_ns = 0
    #: Nanoseconds the last sleep overran, owed back within the busy period.
    overrun = 0
    last_overrun = 0
    reported = False
    delta_ready = read_poller(delta_conn.fileno())

    def idle() -> None:
        nonlocal empty_polls, overrun
        empty_polls += 1
        overrun = 0  # the ring ran dry: a new busy period carries nothing
        state.heartbeat(worker_id)
        _drain_deltas(delta_conn, delta_ready, replica, faults)

    try:
        for line in (start, finish):
            if line is not None:
                line.release()  # this process's copy of the write end
        state.heartbeat(worker_id)
        result_conn.send(("ready",))
        while True:
            frame = ring.pop(should_abort=state.aborted, idle=idle)
            if frame.is_eof:
                break
            if not first_frame_ns:
                first_frame_ns = time.monotonic_ns()
            # Popped is past the supervisor's ring drain: a frame in hand
            # at death is counted from this claim instead.
            state.claim_frame(worker_id, int(frame.ids.size))
            if frame.dict_high_water > len(replica):
                _drain_deltas(delta_conn, delta_ready, replica, faults)
                _await_dictionary(
                    delta_conn, delta_ready, replica, frame.dict_high_water,
                    state, worker_id, faults,
                )
            # Every id is below the frame's high water, which the replica
            # now covers: growing to the replica bounds them all.
            known = len(replica)
            if known > counts.size:
                counts = np.concatenate(
                    [counts, np.zeros(max(known, 2 * counts.size) - counts.size, dtype=np.int64)]
                )
            ids = frame.ids
            np.add.at(counts, ids, 1)
            processed += int(ids.size)
            frames += 1
            if service_ns:
                want = service_ns * ids.size - overrun
                if want > 0:
                    asleep_at = time.perf_counter_ns()
                    time.sleep(want / 1e9)
                    overrun = last_overrun = time.perf_counter_ns() - asleep_at - want
                else:
                    overrun = -want
            state.add_processed(worker_id, int(ids.size))  # retires the claim
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
                    first_frame_ns=first_frame_ns,
                    last_overrun_ns=last_overrun,
                ),
            )
        )
        reported = True
    except Exception as error:  # surfaced by the coordinator, not lost
        try:
            result_conn.send(("error", worker_id, repr(error)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            result_conn.close()
        except OSError:
            pass
    if reported and finish is not None:
        finish.wait()
