"""Single-producer / single-consumer ring buffer over shared memory.

One ring connects the source process to one worker process.  The backing
store is any writable buffer of ``int64`` words — a
``multiprocessing.shared_memory.SharedMemory`` block between processes, or
a plain ``numpy`` array in unit tests — so the protocol is testable without
spawning a single process.

Layout (all words are little-endian ``int64``)::

    word 0            producer position  (monotone, in payload words)
    word 1            consumer position  (monotone, in payload words)
    word 2            payload capacity   (in words, fixed at creation)
    word 3            consumer_waiting   (1 while the consumer is about to block)
    words 4..7        reserved
    words 8..8+cap    circular payload region holding frames

A *frame* is a contiguous run of words inside the payload region::

    [seq, kind, length, base_index, dict_high_water, ids[0..length)]

``kind`` is ``DATA`` (an id batch), ``EOF`` (the poison pill ending the
stream) or ``PAD`` (skip to the start of the region; emitted when a frame
would straddle the wrap point so payloads always stay contiguous).  ``seq``
increments by one per DATA/EOF frame; the consumer verifies it and raises
:class:`~repro.exceptions.ClusterRuntimeError` on a gap — a torn or skipped
frame never goes unnoticed.  ``dict_high_water`` tells the consumer how
many dictionary entries it must have replicated before decoding the frame's
ids (see ``runtime/worker.py`` for the delta-sync protocol).

Publication order is the classic SPSC discipline: the producer writes the
frame words first and only then advances word 0; the consumer reads word 0,
consumes up to it and only then advances word 1.  Positions are monotone,
so ``producer - consumer`` is the exact number of unread payload words and
full/empty states never alias.

A consumer's wait is a *block with a backstop*.  Every ring has a
:class:`Doorbell` — a pipe made before the fork, so both sides inherit it.
A consumer that finds the ring empty **announces** itself (word 3 = 1),
**re-checks** the positions, and only then **blocks** on the doorbell for
at most ``_BACKOFF_MAX_S``; a producer tests word 3 *after* its position
store and, when it is set, clears it and rings.  The order matters: a frame
published between the empty poll and the announcement finds word 3 still 0
and rings nobody, so without the re-check its consumer would sleep on a
full ring.  Announce / re-check on one side and publish / test on the other
are each a store followed by a load of a *different* word, which two cores
may reorder, so a wake-up can still be lost — that costs one backstop
(2 ms), never liveness, because no block is unbounded.  The doorbell only
ever shortens a wait: abort, deadline and ``idle`` are polled at least
once per backstop whether or not anyone rings.  A ring rung after its
consumer already woke leaves a stale byte in the pipe, which costs the next
wait one spurious wake and no frame.
"""

from __future__ import annotations

import os
import select
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ClusterRuntimeError

#: Frame kinds.
DATA = 0
EOF = 1
PAD = 2

#: Words in a frame header: seq, kind, length, base_index, dict_high_water.
FRAME_HEADER_WORDS = 5

#: Control words before the payload region (positions, capacity, reserved).
CONTROL_WORDS = 8

_PRODUCER = 0
_CONSUMER = 1
_CAPACITY = 2
_WAITING = 3

#: Bounded deterministic exponential backoff while a push waits for space:
#: start short (the common case is the consumer freeing the ring within
#: microseconds), double per full poll, cap low enough that a recovering
#: cluster reacts within a few milliseconds.  On the 1-CPU containers this
#: runtime targets, yielding the core to the peer process *is* the fast
#: path; pure spinning would starve it, and a fixed long sleep would add
#: latency exactly when the ring just drained.  No jitter: the wait
#: schedule of a seeded run is reproducible.  The cap is also the backstop
#: of every consumer-side block on the doorbell.
_BACKOFF_MIN_S = 0.00005
_BACKOFF_MAX_S = 0.002


def read_poller(fd: int) -> select.poll:
    """A kept ``select.poll`` over one descriptor's readability.

    ``poller.poll(0)`` is truthy when ``fd`` is readable (or at EOF) and
    costs one system call; ``Connection.poll(0)`` answers the same question
    by building and tearing down a selector per call (~9x the time), which
    is why the hot loops ask this first.  The object holds no descriptor of
    its own, so it survives a fork and needs no close.
    """
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return poller


class Doorbell:
    """The wake-up line of one ring: a pipe the producer writes a byte to.

    Made before the fork, so producer and consumer processes inherit both
    ends; a respawned consumer is handed its slot's existing doorbell,
    because the producer keeps its view (and so its write end) across
    :meth:`SpscRing.rebind`.  :meth:`close` releases the descriptors and is
    idempotent; an unreferenced doorbell closes itself.
    """

    __slots__ = ("_read_fd", "_write_fd", "_readable")

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        os.set_blocking(self._write_fd, False)
        self._readable = read_poller(self._read_fd)

    def ring(self) -> None:
        """Wake the consumer (producer side; never blocks)."""
        try:
            os.write(self._write_fd, b"\0")
        except BlockingIOError:
            pass  # pipe full: already rung, and not yet answered

    def wait(self, timeout_s: float) -> bool:
        """Block until rung or ``timeout_s`` passed; ``True`` when rung."""
        if not self._readable.poll(timeout_s * 1e3):
            return False
        try:
            os.read(self._read_fd, 4096)  # answer every ring so far at once
        except BlockingIOError:
            pass
        return True

    def close(self) -> None:
        for fd in (self._read_fd, self._write_fd):
            if fd >= 0:
                os.close(fd)
        self._read_fd = self._write_fd = -1

    __del__ = close


class RingClosed(ClusterRuntimeError):
    """The consumer popped past the EOF frame, or pushed after closing."""


@dataclass(slots=True)
class Frame:
    """One popped frame (header fields plus a copied-out id array)."""

    seq: int
    kind: int
    base_index: int
    dict_high_water: int
    ids: np.ndarray

    @property
    def is_eof(self) -> bool:
        return self.kind == EOF


@dataclass(slots=True)
class InflightDrain:
    """What a supervisor salvaged from a dead consumer's ring."""

    frames: int  # DATA frames drained (never popped by the worker)
    messages: int  # ids those frames carried — the exact in-flight loss
    eof_seen: bool  # the producer had already closed the ring


def ring_words(capacity_words: int) -> int:
    """Total ``int64`` words a ring with the given payload capacity needs."""
    return CONTROL_WORDS + capacity_words


class SpscRing:
    """The single-producer/single-consumer ring protocol.

    Parameters
    ----------
    buffer:
        Writable buffer exposing at least ``ring_words(capacity)`` int64
        words (a ``SharedMemory.buf``, a ``numpy`` array, a ``bytearray``).
    capacity_words:
        Payload-region size when *creating* a ring (``create=True``).  Must
        leave room for the largest pushed frame **plus** a PAD header.
    create:
        ``True`` initialises the control words (producer side of a fresh
        block); ``False`` attaches to an already-initialised ring.
    doorbell:
        The :class:`Doorbell` both sides of this ring share.  A ring built
        without one makes its own the first time it has to wait or ring
        (in-process uses that never block never open a descriptor); two
        views over one buffer must be given the same doorbell to wake each
        other before the backstop.
    """

    __slots__ = (
        "_words",
        "_capacity",
        "_next_push_seq",
        "_next_pop_seq",
        "_closed",
        "_doorbell",
    )

    def __init__(
        self,
        buffer,
        capacity_words: int | None = None,
        *,
        create: bool = False,
        doorbell: Doorbell | None = None,
    ) -> None:
        if isinstance(buffer, np.ndarray):
            if buffer.dtype != np.int64:
                raise ClusterRuntimeError("ring buffer array must be int64")
            words = buffer
        else:
            words = np.frombuffer(buffer, dtype=np.int64)
        if create:
            if capacity_words is None:
                raise ClusterRuntimeError("creating a ring requires capacity_words")
            min_capacity = 2 * FRAME_HEADER_WORDS + 1
            if capacity_words < min_capacity:
                raise ClusterRuntimeError(
                    f"ring capacity must be >= {min_capacity} words, "
                    f"got {capacity_words}"
                )
            if words.size < ring_words(capacity_words):
                raise ClusterRuntimeError(
                    f"buffer holds {words.size} words, ring needs "
                    f"{ring_words(capacity_words)}"
                )
            words[:CONTROL_WORDS] = 0
            words[_CAPACITY] = capacity_words
        self._words = words
        self._capacity = int(words[_CAPACITY])
        if self._capacity < 1:
            raise ClusterRuntimeError("attaching to an uninitialised ring")
        self._next_push_seq = 0
        self._next_pop_seq = 0
        self._closed = False
        self._doorbell = doorbell

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def capacity_words(self) -> int:
        return self._capacity

    @property
    def doorbell(self) -> Doorbell:
        """This ring's doorbell, made on first need when none was given."""
        if self._doorbell is None:
            self._doorbell = Doorbell()
        return self._doorbell

    def free_words(self) -> int:
        """Payload words currently free (producer's view)."""
        words = self._words
        return self._capacity - (int(words[_PRODUCER]) - int(words[_CONSUMER]))

    def pending_words(self) -> int:
        """Payload words currently readable (consumer's view)."""
        words = self._words
        return int(words[_PRODUCER]) - int(words[_CONSUMER])

    def max_frame_ids(self) -> int:
        """Largest id-array length a single push can ever carry."""
        # The worst case wraps: a PAD header at the tail plus the frame.
        return self._capacity - 2 * FRAME_HEADER_WORDS

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def try_push(
        self,
        ids,
        base_index: int = 0,
        dict_high_water: int = 0,
        kind: int = DATA,
    ) -> bool:
        """Push one frame if space allows; ``False`` when the ring is full.

        Never blocks — the backpressure loop belongs to the caller (see
        :meth:`push`).  Raises when the frame can *never* fit so a too-small
        ring fails loudly instead of deadlocking.
        """
        if self._closed:
            raise RingClosed("push after EOF")
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        needed = FRAME_HEADER_WORDS + ids.size
        if ids.size > self.max_frame_ids():
            raise ClusterRuntimeError(
                f"frame of {ids.size} ids cannot fit a ring of "
                f"{self._capacity} payload words"
            )
        words = self._words
        capacity = self._capacity
        producer = int(words[_PRODUCER])
        offset = producer % capacity
        tail = capacity - offset
        pad = 0
        if needed > tail:
            pad = tail  # skip the tail; payload stays contiguous
        if self.free_words() < pad + needed:
            return False
        if pad:
            if tail >= FRAME_HEADER_WORDS:
                base = CONTROL_WORDS + offset
                words[base] = self._next_push_seq  # seq slot, ignored for PAD
                words[base + 1] = PAD
                words[base + 2] = tail - FRAME_HEADER_WORDS
                words[base + 3] = 0
                words[base + 4] = 0
            # tail < header: consumer skips the stub implicitly.
            producer += pad
            offset = 0
        base = CONTROL_WORDS + offset
        words[base] = self._next_push_seq
        words[base + 1] = kind
        words[base + 2] = ids.size
        words[base + 3] = base_index
        words[base + 4] = dict_high_water
        if ids.size:
            words[base + FRAME_HEADER_WORDS : base + needed] = ids
        # Publish: the position store is the release barrier (CPython's
        # eval loop never reorders these stores; x86 stores are ordered).
        words[_PRODUCER] = producer + needed
        self._next_push_seq += 1
        if kind == EOF:
            self._closed = True
        # Tested strictly after the publish: a consumer that announced
        # itself before it re-checked the positions is rung, exactly once.
        if words[_WAITING]:
            words[_WAITING] = 0
            self.doorbell.ring()
        return True

    def push(
        self,
        ids,
        base_index: int = 0,
        dict_high_water: int = 0,
        kind: int = DATA,
        timeout: float | None = None,
        should_abort=None,
    ) -> None:
        """Blocking push: poll-sleep until the frame fits (backpressure).

        ``should_abort`` is polled between attempts; returning ``True``
        raises :class:`~repro.exceptions.ClusterRuntimeError` so a stuck
        producer unwinds when the run is cancelled.  ``timeout`` (seconds)
        bounds the wait.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        backoff = _BACKOFF_MIN_S
        while not self.try_push(ids, base_index, dict_high_water, kind):
            if should_abort is not None and should_abort():
                raise ClusterRuntimeError("push aborted")
            if deadline is not None and time.monotonic() > deadline:
                words = self._words
                raise ClusterRuntimeError(
                    f"push timed out after {timeout}s (ring full: consumer "
                    f"stalled? producer={int(words[_PRODUCER])} "
                    f"consumer={int(words[_CONSUMER])} "
                    f"free={self.free_words()}/{self._capacity} words, "
                    f"next push seq {self._next_push_seq})"
                )
            time.sleep(backoff)
            backoff = min(backoff * 2, _BACKOFF_MAX_S)

    def close(self, timeout: float | None = None, should_abort=None) -> None:
        """Push the EOF poison pill (idempotent)."""
        if not self._closed:
            self.push(
                np.empty(0, dtype=np.int64),
                kind=EOF,
                timeout=timeout,
                should_abort=should_abort,
            )

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def try_pop(self) -> Frame | None:
        """Pop the next frame if one is published; ``None`` when empty.

        The returned id array is a copy — the payload region is recycled as
        soon as the consumer position advances.
        """
        words = self._words
        capacity = self._capacity
        while True:
            consumer = int(words[_CONSUMER])
            if int(words[_PRODUCER]) - consumer <= 0:
                return None
            offset = consumer % capacity
            tail = capacity - offset
            if tail < FRAME_HEADER_WORDS:
                words[_CONSUMER] = consumer + tail  # implicit pad stub
                continue
            base = CONTROL_WORDS + offset
            kind = int(words[base + 1])
            if kind == PAD:
                words[_CONSUMER] = consumer + tail
                continue
            seq = int(words[base])
            length = int(words[base + 2])
            if length < 0 or FRAME_HEADER_WORDS + length > tail:
                raise ClusterRuntimeError(
                    f"corrupt frame header at offset {offset}: length={length}"
                )
            if seq != self._next_pop_seq:
                raise ClusterRuntimeError(
                    f"sequence gap: expected frame {self._next_pop_seq}, "
                    f"found {seq}"
                )
            frame = Frame(
                seq=seq,
                kind=kind,
                base_index=int(words[base + 3]),
                dict_high_water=int(words[base + 4]),
                ids=words[
                    base + FRAME_HEADER_WORDS : base + FRAME_HEADER_WORDS + length
                ].copy(),
            )
            words[_CONSUMER] = consumer + FRAME_HEADER_WORDS + length
            self._next_pop_seq += 1
            return frame

    def pop(
        self,
        timeout: float | None = None,
        should_abort=None,
        idle=None,
    ) -> Frame:
        """Blocking pop; waits on the doorbell until a frame is published.

        Each empty poll checks ``should_abort`` and the deadline, calls
        ``idle`` (when given — workers use it to heartbeat and drain
        dictionary deltas while waiting), then announces the wait in word
        3, re-checks the positions and blocks until the producer rings or
        ``_BACKOFF_MAX_S`` passed (see the module docstring for the order).
        So a published frame is popped as soon as the consumer is
        scheduled, and a silent producer costs one poll per backstop.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        words = self._words
        while True:
            frame = self.try_pop()
            if frame is not None:
                return frame
            if should_abort is not None and should_abort():
                raise ClusterRuntimeError("pop aborted")
            if deadline is not None and time.monotonic() > deadline:
                raise ClusterRuntimeError(
                    f"pop timed out after {timeout}s (producer stalled? "
                    f"producer={int(words[_PRODUCER])} "
                    f"consumer={int(words[_CONSUMER])} "
                    f"pending={self.pending_words()} words, "
                    f"awaiting seq {self._next_pop_seq})"
                )
            if idle is not None:
                idle()
            words[_WAITING] = 1
            if self.pending_words() <= 0:
                self.doorbell.wait(_BACKOFF_MAX_S)
            words[_WAITING] = 0

    # ------------------------------------------------------------------ #
    # supervisor side
    # ------------------------------------------------------------------ #
    def rebind(self) -> None:
        """Reset this view's local cursors after an external re-init.

        The supervisor re-initialises a crashed worker's ring in place
        (fresh control words, positions back to zero); the source calls
        ``rebind()`` on its producer view so its sequence counter and
        closed flag match the reborn ring.  Local state only — the shared
        words are untouched, and so is the doorbell: the reborn ring was
        built over this slot's existing one.
        """
        self._next_push_seq = 0
        self._next_pop_seq = 0
        self._closed = False

    def drain_inflight(self) -> InflightDrain:
        """Consume everything published but never popped (crash salvage).

        Called by the supervisor *after* the dead consumer process is
        reaped and *after* the producer is fenced off the ring, so both
        positions are quiescent.  Unlike :meth:`try_pop` this walks from
        wherever the dead consumer left the position and trusts the frame
        sequence numbers it finds (the supervisor's view never popped, so
        its own counter is meaningless); headers are still bounds-checked.
        Returns the exact loss: DATA frames and the messages they carried.
        """
        words = self._words
        capacity = self._capacity
        frames = 0
        messages = 0
        eof_seen = False
        while True:
            consumer = int(words[_CONSUMER])
            if int(words[_PRODUCER]) - consumer <= 0:
                return InflightDrain(frames=frames, messages=messages, eof_seen=eof_seen)
            offset = consumer % capacity
            tail = capacity - offset
            if tail < FRAME_HEADER_WORDS:
                words[_CONSUMER] = consumer + tail
                continue
            base = CONTROL_WORDS + offset
            kind = int(words[base + 1])
            if kind == PAD:
                words[_CONSUMER] = consumer + tail
                continue
            length = int(words[base + 2])
            if length < 0 or FRAME_HEADER_WORDS + length > tail:
                raise ClusterRuntimeError(
                    f"corrupt frame header at offset {offset} while draining "
                    f"in-flight frames: length={length}"
                )
            if kind == DATA:
                frames += 1
                messages += length
            elif kind == EOF:
                eof_seen = True
            words[_CONSUMER] = consumer + FRAME_HEADER_WORDS + length
