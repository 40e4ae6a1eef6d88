"""Unit tests of the SPSC ring protocol — no processes are spawned.

The ring works over any int64 buffer, so these tests drive producer and
consumer sides in-process over a plain numpy array: wrap-around, PAD
frames, full-buffer backpressure, sequence-gap detection and EOF handling
are all exercised deterministically.  So is the doorbell protocol: a
scripted doorbell publishes, drops a ring or flips a flag at the exact
point the consumer blocks, which is every interleaving that matters.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.exceptions import ClusterRuntimeError
from repro.runtime.ring import (
    _BACKOFF_MAX_S,
    CONTROL_WORDS,
    DATA,
    EOF,
    FRAME_HEADER_WORDS,
    Doorbell,
    RingClosed,
    SpscRing,
    ring_words,
)

#: Control word 3, ``consumer_waiting`` (see the layout in ``runtime/ring.py``).
WAITING = 3


def make_ring(capacity_words: int = 64) -> tuple[SpscRing, SpscRing, np.ndarray]:
    """A producer view and a consumer view over one shared array."""
    buffer = np.zeros(ring_words(capacity_words), dtype=np.int64)
    producer = SpscRing(buffer, capacity_words, create=True)
    consumer = SpscRing(buffer)  # attaches, reads capacity from control
    return producer, consumer, buffer


class TestPushPop:
    def test_roundtrip_preserves_ids_and_header(self):
        producer, consumer, _ = make_ring()
        ids = np.array([5, 3, 5, 9], dtype=np.int64)
        assert producer.try_push(ids, base_index=17, dict_high_water=10)
        frame = consumer.try_pop()
        assert frame is not None
        assert frame.seq == 0
        assert frame.kind == DATA
        assert frame.base_index == 17
        assert frame.dict_high_water == 10
        assert frame.ids.tolist() == [5, 3, 5, 9]

    def test_pop_on_empty_ring_returns_none(self):
        _, consumer, _ = make_ring()
        assert consumer.try_pop() is None

    def test_popped_ids_are_copies(self):
        producer, consumer, _ = make_ring()
        producer.try_push(np.array([1, 2, 3], dtype=np.int64))
        frame = consumer.try_pop()
        # Recycle the region with a different frame; the copy must survive.
        producer.try_push(np.array([7, 7, 7], dtype=np.int64))
        assert frame.ids.tolist() == [1, 2, 3]

    def test_sequence_numbers_increment_per_frame(self):
        producer, consumer, _ = make_ring()
        for _ in range(3):
            producer.try_push(np.array([1], dtype=np.int64))
        assert [consumer.try_pop().seq for _ in range(3)] == [0, 1, 2]


class TestWrapAround:
    def test_many_frames_wrap_the_region(self):
        producer, consumer, _ = make_ring(capacity_words=32)
        # Frames of 7 words (5 header + 2 ids) in a 32-word region force a
        # wrap roughly every fourth frame.
        for round_number in range(50):
            ids = np.array([round_number, round_number + 1], dtype=np.int64)
            assert producer.try_push(ids, base_index=round_number)
            frame = consumer.try_pop()
            assert frame.seq == round_number
            assert frame.base_index == round_number
            assert frame.ids.tolist() == [round_number, round_number + 1]

    def test_wrap_with_varying_frame_sizes(self):
        producer, consumer, _ = make_ring(capacity_words=48)
        sizes = [1, 9, 3, 17, 2, 11, 5, 1, 13, 7] * 5
        for seq, size in enumerate(sizes):
            ids = np.full(size, seq, dtype=np.int64)
            assert producer.try_push(ids)
            frame = consumer.try_pop()
            assert frame.seq == seq
            assert frame.ids.tolist() == [seq] * size

    def test_interleaved_batches_survive_wraps(self):
        producer, consumer, _ = make_ring(capacity_words=40)
        pushed = 0
        popped = 0
        while popped < 200:
            while pushed - popped < 2 and producer.try_push(
                np.array([pushed], dtype=np.int64)
            ):
                pushed += 1
            frame = consumer.try_pop()
            if frame is not None:
                assert frame.ids.tolist() == [popped]
                popped += 1


class TestExactTailFill:
    """A frame that exactly fills the words left before the wrap point.

    ``needed == tail`` is the PAD boundary: the frame must be written flush
    against the end of the region with **no** PAD frame and no skipped
    words, and the next frame must start cleanly at offset 0.  Regression
    test — an off-by-one in the ``needed > tail`` comparison would either
    waste the whole tail or corrupt the wrap.
    """

    def test_exact_fill_emits_no_pad_and_wraps_cleanly(self):
        capacity = 32
        producer, consumer, buffer = make_ring(capacity_words=capacity)
        first = np.arange(7, dtype=np.int64)
        assert producer.try_push(first, base_index=1)
        assert consumer.try_pop().ids.tolist() == list(range(7))
        # The offset is now 12, so the tail holds exactly 20 words; a frame
        # of 15 ids needs 5 + 15 = 20 words — an exact fill.
        exact = np.arange(100, 115, dtype=np.int64)
        assert producer.try_push(exact, base_index=2)
        assert int(buffer[0]) == capacity  # producer advanced by 20: no PAD
        frame = consumer.try_pop()
        assert frame.seq == 1
        assert frame.kind == DATA
        assert frame.base_index == 2
        assert frame.ids.tolist() == exact.tolist()
        # The region is fully recycled: the next frame starts at offset 0.
        assert producer.free_words() == capacity
        assert producer.try_push(np.array([7, 8, 9], dtype=np.int64))
        assert int(buffer[CONTROL_WORDS + 1]) == DATA  # header at offset 0
        frame = consumer.try_pop()
        assert frame.seq == 2
        assert frame.ids.tolist() == [7, 8, 9]

    def test_exact_fill_is_the_largest_frame_that_fits_the_tail(self):
        # With a 12-word frame unread, free == tail == 20: one id more than
        # the exact fill needs a PAD and therefore cannot fit, while the
        # exact fill still can.
        producer, consumer, _ = make_ring(capacity_words=32)
        assert producer.try_push(np.zeros(7, dtype=np.int64))
        assert not producer.try_push(np.zeros(16, dtype=np.int64))
        assert producer.try_push(np.zeros(15, dtype=np.int64))
        assert consumer.try_pop().ids.size == 7
        assert consumer.try_pop().ids.size == 15


class TestBackpressure:
    def test_try_push_returns_false_when_full(self):
        producer, consumer, _ = make_ring(capacity_words=32)
        pushed = 0
        while producer.try_push(np.array([pushed], dtype=np.int64)):
            pushed += 1
        assert pushed >= 2  # 6-word frames in a 32-word region
        # Draining one frame frees space for exactly one more.
        assert consumer.try_pop() is not None
        assert producer.try_push(np.array([pushed], dtype=np.int64))
        assert not producer.try_push(np.array([99], dtype=np.int64))

    def test_blocking_push_times_out_when_consumer_stalls(self):
        producer, _, _ = make_ring(capacity_words=32)
        while producer.try_push(np.array([1], dtype=np.int64)):
            pass
        with pytest.raises(ClusterRuntimeError, match="timed out"):
            producer.push(np.array([2], dtype=np.int64), timeout=0.05)

    def test_blocking_push_aborts_on_request(self):
        producer, _, _ = make_ring(capacity_words=32)
        while producer.try_push(np.array([1], dtype=np.int64)):
            pass
        with pytest.raises(ClusterRuntimeError, match="aborted"):
            producer.push(np.array([2], dtype=np.int64), should_abort=lambda: True)

    def test_oversized_frame_raises_instead_of_deadlocking(self):
        producer, _, _ = make_ring(capacity_words=32)
        too_big = np.zeros(producer.max_frame_ids() + 1, dtype=np.int64)
        with pytest.raises(ClusterRuntimeError, match="cannot fit"):
            producer.try_push(too_big)

    def test_free_and_pending_words_account_for_frames(self):
        producer, consumer, _ = make_ring(capacity_words=64)
        assert producer.free_words() == 64
        producer.try_push(np.array([1, 2], dtype=np.int64))
        assert producer.free_words() == 64 - (FRAME_HEADER_WORDS + 2)
        assert consumer.pending_words() == FRAME_HEADER_WORDS + 2
        consumer.try_pop()
        assert producer.free_words() == 64
        assert consumer.pending_words() == 0


class TestSequenceGapDetection:
    def test_tampered_seq_raises(self):
        producer, consumer, buffer = make_ring()
        producer.try_push(np.array([1], dtype=np.int64))
        buffer[CONTROL_WORDS] = 41  # overwrite the frame's seq word
        with pytest.raises(ClusterRuntimeError, match="sequence gap"):
            consumer.try_pop()

    def test_skipped_frame_raises(self):
        producer, consumer, _ = make_ring()
        producer.try_push(np.array([1], dtype=np.int64))
        producer.try_push(np.array([2], dtype=np.int64))
        consumer.try_pop()
        consumer._next_pop_seq += 1  # consumer believes it is further along
        with pytest.raises(ClusterRuntimeError, match="sequence gap"):
            consumer.try_pop()

    def test_corrupt_length_raises(self):
        producer, consumer, buffer = make_ring()
        producer.try_push(np.array([1], dtype=np.int64))
        buffer[CONTROL_WORDS + 2] = 10_000
        with pytest.raises(ClusterRuntimeError, match="corrupt frame"):
            consumer.try_pop()


class TestEof:
    def test_close_delivers_eof_frame(self):
        producer, consumer, _ = make_ring()
        producer.try_push(np.array([1], dtype=np.int64))
        producer.close()
        assert consumer.try_pop().kind == DATA
        frame = consumer.try_pop()
        assert frame.is_eof
        assert frame.kind == EOF
        assert frame.ids.size == 0

    def test_push_after_close_raises(self):
        producer, _, _ = make_ring()
        producer.close()
        with pytest.raises(RingClosed):
            producer.try_push(np.array([1], dtype=np.int64))

    def test_close_is_idempotent(self):
        producer, consumer, _ = make_ring()
        producer.close()
        producer.close()
        assert consumer.try_pop().is_eof
        assert consumer.try_pop() is None


class TestTimeoutDiagnostics:
    """Ring timeout errors carry the positions needed to debug a stall."""

    def test_push_timeout_names_positions_and_sequence(self):
        producer, _, _ = make_ring(capacity_words=32)
        pushed = 0
        while producer.try_push(np.array([1], dtype=np.int64)):
            pushed += 1
        with pytest.raises(ClusterRuntimeError) as excinfo:
            producer.push(np.array([2], dtype=np.int64), timeout=0.05)
        message = str(excinfo.value)
        assert "producer=" in message
        assert "consumer=0" in message
        assert f"next push seq {pushed}" in message
        assert "/32 words" in message

    def test_pop_timeout_names_positions_and_awaited_seq(self):
        producer, consumer, _ = make_ring(capacity_words=32)
        producer.try_push(np.array([1], dtype=np.int64))
        consumer.try_pop()
        with pytest.raises(ClusterRuntimeError) as excinfo:
            consumer.pop(timeout=0.05)
        message = str(excinfo.value)
        assert "producer=" in message
        assert "consumer=" in message
        assert "pending=0 words" in message
        assert "awaiting seq 1" in message

    def test_backoff_bounds_are_sane(self):
        from repro.runtime.ring import _BACKOFF_MAX_S, _BACKOFF_MIN_S

        # Deterministic (no jitter) and bounded: doubles from the floor,
        # never sleeps past the cap.
        assert 0 < _BACKOFF_MIN_S < _BACKOFF_MAX_S
        assert _BACKOFF_MAX_S <= 0.01


class ScriptedDoorbell(Doorbell):
    """A real doorbell that records its traffic and can be interfered with.

    ``on_block`` runs once, at the moment the consumer blocks — after its
    announcement and its re-check — which is where a concurrent producer
    would have to act for the interleaving to be interesting.
    ``lose_rings`` drops the producer's write: the lost wake-up.
    """

    def __init__(self) -> None:
        super().__init__()
        self.rings = 0
        self.waits: list[bool] = []  # per block: was it rung?
        self.lose_rings = False
        self.on_block = None

    def ring(self) -> None:
        self.rings += 1
        if not self.lose_rings:
            super().ring()

    def wait(self, timeout_s: float) -> bool:
        if self.on_block is not None:
            hook, self.on_block = self.on_block, None
            hook()
        rung = super().wait(timeout_s)
        self.waits.append(rung)
        return rung


@pytest.fixture
def belled():
    """Producer and consumer views over one array, sharing one doorbell."""
    bell = ScriptedDoorbell()
    buffer = np.zeros(ring_words(64), dtype=np.int64)
    producer = SpscRing(buffer, 64, create=True, doorbell=bell)
    consumer = SpscRing(buffer, doorbell=bell)
    yield producer, consumer, buffer, bell
    bell.close()


ONE = np.array([7], dtype=np.int64)


class TestDoorbell:
    """Announce -> re-check -> block, and publish -> test -> ring."""

    def test_push_with_nobody_waiting_rings_nothing(self, belled):
        producer, _, buffer, bell = belled
        assert producer.try_push(ONE)
        assert bell.rings == 0
        assert buffer[WAITING] == 0

    def test_announced_wait_is_rung_once_and_cleared_by_the_producer(self, belled):
        producer, _, buffer, bell = belled
        buffer[WAITING] = 1  # a consumer announced itself
        assert producer.try_push(ONE)
        assert bell.rings == 1
        assert buffer[WAITING] == 0  # cleared by the producer, not the waker
        assert producer.try_push(ONE)
        assert bell.rings == 1  # one announcement, one ring
        assert bell.wait(0) is True

    def test_frame_published_before_the_announcement_is_found_by_the_recheck(
        self, belled
    ):
        # idle() runs after the empty poll and before word 3 is set: the
        # frame it publishes rings nobody, so only the re-check can see it.
        producer, consumer, buffer, bell = belled
        published = []

        def publish_once():
            if not published:
                published.append(producer.try_push(ONE, base_index=3))

        frame = consumer.pop(idle=publish_once, timeout=1.0)
        assert frame.base_index == 3
        assert bell.rings == 0
        assert bell.waits == []  # never blocked
        assert buffer[WAITING] == 0

    def test_blocked_consumer_is_woken_by_the_ring(self, belled):
        producer, consumer, buffer, bell = belled
        bell.on_block = lambda: producer.try_push(ONE, base_index=4)
        frame = consumer.pop(timeout=1.0)
        assert frame.base_index == 4
        assert bell.rings == 1
        assert bell.waits == [True]
        assert buffer[WAITING] == 0

    def test_lost_wake_up_costs_one_backstop(self, belled):
        producer, consumer, _, bell = belled
        bell.lose_rings = True
        bell.on_block = lambda: producer.try_push(ONE, base_index=5)
        started = time.monotonic()
        frame = consumer.pop(timeout=1.0)
        elapsed = time.monotonic() - started
        assert frame.base_index == 5
        assert bell.rings == 1  # the producer did ring; the write was lost
        assert bell.waits == [False]  # one block, ended by its timeout
        # One backstop by construction; the bound leaves the scheduler room.
        assert elapsed < 2 * _BACKOFF_MAX_S + 0.05

    def test_stale_ring_costs_one_spurious_wake_and_no_frame(self, belled):
        _, consumer, _, bell = belled
        Doorbell.ring(bell)  # rung after its consumer had already woken
        with pytest.raises(ClusterRuntimeError, match="pop timed out after 0.05s"):
            consumer.pop(timeout=0.05)
        assert bell.waits[0] is True
        assert len(bell.waits) > 1 and not any(bell.waits[1:])

    def test_eof_rings_a_waiting_consumer(self, belled):
        producer, consumer, _, bell = belled
        bell.on_block = producer.close
        assert consumer.pop(timeout=1.0).is_eof
        assert bell.rings == 1
        assert bell.waits == [True]

    def test_abort_while_blocked_unwinds_within_the_backstop(self, belled):
        _, consumer, buffer, bell = belled
        aborted = []
        bell.on_block = lambda: aborted.append(True)
        with pytest.raises(ClusterRuntimeError, match="pop aborted"):
            consumer.pop(should_abort=lambda: bool(aborted))
        assert bell.waits == [False]
        assert buffer[WAITING] == 0

    def test_idle_runs_once_per_empty_poll(self, belled):
        producer, consumer, _, bell = belled
        polls = []
        bell.on_block = lambda: producer.try_push(ONE)
        consumer.pop(idle=lambda: polls.append(1), timeout=1.0)
        assert len(polls) == 1  # the re-check is not a poll of its own

    def test_create_zeroes_the_waiting_word(self, belled):
        _, _, buffer, bell = belled
        buffer[WAITING] = 1  # the dead incarnation was blocked
        SpscRing(buffer, 64, create=True, doorbell=bell)
        assert buffer[WAITING] == 0

    def test_reborn_ring_over_the_slots_doorbell_is_rung_by_the_kept_producer(
        self, belled
    ):
        # What _Supervisor._respawn does: the ring is re-initialised in
        # place over the slot's existing doorbell, and the source only
        # rebinds the producer view it already had.
        producer, _, buffer, bell = belled
        producer.try_push(ONE)
        replacement = SpscRing(buffer, 64, create=True, doorbell=bell)
        producer.rebind()
        bell.on_block = lambda: producer.try_push(ONE, base_index=9)
        assert replacement.pop(timeout=1.0).base_index == 9
        assert bell.waits == [True]

    def test_ring_without_a_doorbell_makes_its_own_on_first_need(self):
        producer, consumer, _ = make_ring()
        producer.try_push(ONE)
        consumer.try_pop()
        # Rings that never wait never open a descriptor (bench/layers.py).
        assert producer._doorbell is None and consumer._doorbell is None
        with pytest.raises(ClusterRuntimeError, match="pop timed out"):
            consumer.pop(timeout=0.01)
        assert isinstance(consumer._doorbell, Doorbell)
        assert producer._doorbell is None

    def test_close_is_idempotent(self):
        bell = Doorbell()
        bell.close()
        bell.close()


class TestSupervisorSalvage:
    """rebind() and drain_inflight() — the recovery side of the protocol."""

    def test_drain_counts_unpopped_frames_and_messages(self):
        producer, consumer, _ = make_ring()
        producer.try_push(np.array([1, 2, 3], dtype=np.int64))
        producer.try_push(np.array([4], dtype=np.int64))
        consumer.try_pop()  # the dead worker got one frame out
        drain = producer.drain_inflight()
        assert drain.frames == 1
        assert drain.messages == 1
        assert not drain.eof_seen
        assert producer.free_words() == producer.capacity_words

    def test_drain_sees_eof_and_skips_pads(self):
        producer, consumer, _ = make_ring(capacity_words=32)
        # Force a PAD: a 7-word frame leaves offset 12, the next 4-id frame
        # needs 9 words > 20-word tail only after another frame...  simply
        # push until wrap occurs, popping none.
        producer.try_push(np.arange(7, dtype=np.int64))
        producer.close()
        drain = producer.drain_inflight()
        assert drain.frames == 1
        assert drain.messages == 7
        assert drain.eof_seen

    def test_drain_from_mid_stream_position(self):
        # drain_inflight trusts whatever position the dead consumer left —
        # its own local pop counter must not matter.
        producer, consumer, buffer = make_ring()
        for index in range(3):
            producer.try_push(np.full(2, index, dtype=np.int64))
        consumer.try_pop()
        supervisor_view = SpscRing(buffer)  # fresh attach, never popped
        drain = supervisor_view.drain_inflight()
        assert drain.frames == 2
        assert drain.messages == 4

    def test_rebind_after_reinit_restarts_sequences(self):
        producer, consumer, buffer = make_ring(capacity_words=32)
        producer.try_push(np.array([1, 2], dtype=np.int64))
        producer.close()
        # Supervisor re-initialises the ring in place for the replacement.
        SpscRing(buffer, 32, create=True)
        producer.rebind()
        assert producer.free_words() == 32
        producer.try_push(np.array([9], dtype=np.int64), base_index=5)
        replacement = SpscRing(buffer)
        frame = replacement.try_pop()
        assert frame.seq == 0
        assert frame.base_index == 5
        assert frame.ids.tolist() == [9]

    def test_rebind_reopens_a_closed_producer(self):
        producer, _, buffer = make_ring(capacity_words=32)
        producer.close()
        SpscRing(buffer, 32, create=True)
        producer.rebind()
        producer.close()  # would raise RingClosed without the rebind
        assert SpscRing(buffer).try_pop().is_eof


class TestConstruction:
    def test_create_requires_capacity(self):
        with pytest.raises(ClusterRuntimeError):
            SpscRing(np.zeros(64, dtype=np.int64), create=True)

    def test_attach_to_uninitialised_buffer_raises(self):
        with pytest.raises(ClusterRuntimeError):
            SpscRing(np.zeros(64, dtype=np.int64))

    def test_undersized_buffer_raises(self):
        with pytest.raises(ClusterRuntimeError):
            SpscRing(np.zeros(16, dtype=np.int64), 64, create=True)

    def test_non_int64_array_raises(self):
        with pytest.raises(ClusterRuntimeError):
            SpscRing(np.zeros(64, dtype=np.float64), 32, create=True)
