"""Unit tests of the dictionary delta-sync protocol — no processes.

Both pipe ends live in this process, so the producer/consumer handshake is
driven deterministically: deltas arrive before the frames that need them,
overlapping resends are idempotent and gaps fail loudly.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.exceptions import ClusterRuntimeError
from repro.runtime.ring import read_poller
from repro.runtime.source import DeltaFeed
from repro.runtime.worker import (
    DictionaryReplica,
    _await_dictionary,
    _drain_deltas,
)
from repro.workloads.columnar import KeyDictionary


class FakeState:
    def __init__(self, aborted: bool = False) -> None:
        self._aborted = aborted
        self.heartbeats = 0

    def aborted(self) -> bool:
        return self._aborted

    def heartbeat(self, worker_id: int) -> None:
        # A worker waiting on a delta is healthy and must keep beating.
        self.heartbeats += 1


@pytest.fixture
def pipe():
    receive, send = multiprocessing.Pipe(duplex=False)
    yield receive, send
    receive.close()
    send.close()


def ready(receive):
    """The kept poller a worker asks about its delta pipe."""
    return read_poller(receive.fileno())


class TestReplica:
    def test_apply_extends_in_order(self):
        replica = DictionaryReplica()
        replica.apply(0, ["a", "b"])
        replica.apply(2, ["c"])
        assert len(replica) == 3
        assert [replica.key_of(kid) for kid in range(3)] == ["a", "b", "c"]

    def test_overlapping_resend_is_idempotent(self):
        replica = DictionaryReplica()
        replica.apply(0, ["a", "b", "c"])
        replica.apply(1, ["b", "c", "d"])
        assert len(replica) == 4
        assert replica.key_of(3) == "d"

    def test_gap_raises(self):
        replica = DictionaryReplica()
        replica.apply(0, ["a"])
        with pytest.raises(ClusterRuntimeError, match="delta gap"):
            replica.apply(5, ["f"])


class TestDrain:
    def test_drain_applies_every_buffered_delta(self, pipe):
        receive, send = pipe
        send.send(("delta", 0, ["a", "b"]))
        send.send(("delta", 2, ["c"]))
        replica = DictionaryReplica()
        _drain_deltas(receive, ready(receive), replica)
        assert len(replica) == 3

    def test_drain_on_empty_pipe_is_a_noop(self, pipe):
        receive, _ = pipe
        replica = DictionaryReplica()
        _drain_deltas(receive, ready(receive), replica)
        assert len(replica) == 0


class TestAwait:
    def test_blocks_until_high_water_reached(self, pipe):
        receive, send = pipe
        replica = DictionaryReplica()
        send.send(("delta", 0, ["a", "b", "c"]))
        _await_dictionary(receive, ready(receive), replica, high_water=3, state=FakeState())
        assert len(replica) == 3

    def test_returns_immediately_when_already_caught_up(self, pipe):
        receive, _ = pipe
        replica = DictionaryReplica()
        replica.apply(0, ["a"])
        _await_dictionary(receive, ready(receive), replica, high_water=1, state=FakeState())
        assert len(replica) == 1

    def test_abort_unblocks_the_wait(self, pipe):
        receive, _ = pipe
        replica = DictionaryReplica()
        with pytest.raises(ClusterRuntimeError, match="aborted"):
            _await_dictionary(
                receive, ready(receive), replica, high_water=5, state=FakeState(aborted=True)
            )

    def test_heartbeats_while_waiting(self, pipe):
        receive, send = pipe
        replica = DictionaryReplica()
        state = FakeState()
        send.send(("delta", 0, ["a", "b"]))
        _await_dictionary(receive, ready(receive), replica, high_water=2, state=state)
        assert state.heartbeats > 0

    def test_silent_pipe_raises_instead_of_deadlocking(self, pipe, monkeypatch):
        # The needed delta is sent before the frame that demands it, so a
        # pipe that stays silent means the delta is lost — the wait must
        # surface a protocol error, not starve forever while heartbeating
        # (a heartbeating waiter trips no hang detector).
        import repro.runtime.worker as worker_module

        monkeypatch.setattr(worker_module, "DELTA_STARVATION_TIMEOUT_S", 0.1)
        receive, _ = pipe
        replica = DictionaryReplica()
        with pytest.raises(ClusterRuntimeError, match="delta gap"):
            _await_dictionary(receive, ready(receive), replica, high_water=5, state=FakeState())


#: One stream per forward-map form: plain ints, plain strings, and keys the
#: dictionary files under ``(type, key)`` because they compare equal across
#: types (bool / float / int) or are tuples themselves.
KEY_STREAMS = {
    "int": [5, -3, 2**40, 0, 17, 5],
    "str": ["b", "a", "", "key-42", "a"],
    "wrapped": [True, 1, 1.0, (1, "x"), None, 2.5, False, 0],
}


class TestDeltaFeed:
    """The source side: one gathered key list per distinct span."""

    @pytest.fixture
    def feed(self):
        # Two workers; worker 1 has a second incarnation to be replayed to.
        pools = [
            [multiprocessing.Pipe(duplex=False)],
            [multiprocessing.Pipe(duplex=False) for _ in range(2)],
        ]
        yield DeltaFeed([[send for _, send in pool] for pool in pools]), pools
        for pool in pools:
            for ends in pool:
                for end in ends:
                    end.close()

    @staticmethod
    def per_key(dictionary, start, stop):
        """The delta as it was built before: one ``key_of`` per entry."""
        return [dictionary.key_of(kid) for kid in range(start, stop)]

    @pytest.mark.parametrize("kind", sorted(KEY_STREAMS))
    def test_delta_equals_the_per_key_form_before_and_after_a_replay(self, feed, kind):
        feed, pools = feed
        dictionary = KeyDictionary()
        stream = KEY_STREAMS[kind]
        dictionary.intern_keys(stream[:3])
        first = len(dictionary)
        for worker_id in (0, 1):
            feed.send_if_needed(worker_id, dictionary, first)
        dictionary.intern_keys(stream[3:])
        total = len(dictionary)
        assert total > first
        feed.send_if_needed(0, dictionary, total)
        # Worker 1 crashed before the second delta: its replacement is
        # replayed the whole dictionary down the second incarnation's pipe.
        feed.replay_to(1, 1)
        feed.send_if_needed(1, dictionary, total)

        def received(conn):
            messages = []
            while conn.poll(0):
                messages.append(conn.recv())
            return messages

        def same(keys, expected):
            # 1 == True == 1.0: equal lists could still differ in type.
            return keys == expected and list(map(type, keys)) == list(map(type, expected))

        (_, start0, keys0), (_, start1, keys1) = received(pools[0][0][0])
        assert (start0, start1) == (0, first)
        assert same(keys0, self.per_key(dictionary, 0, first))
        assert same(keys1, self.per_key(dictionary, first, total))
        ((_, start, keys),) = received(pools[1][0][0])
        assert start == 0 and same(keys, self.per_key(dictionary, 0, first))
        ((kind_, start, replay),) = received(pools[1][1][0])
        assert (kind_, start) == ("delta", 0)
        assert same(replay, self.per_key(dictionary, 0, total))
        # ...and a replica fed the replay decodes every id like the source.
        replica = DictionaryReplica()
        replica.apply(start, replay)
        assert same(
            [replica.key_of(kid) for kid in range(total)],
            self.per_key(dictionary, 0, total),
        )
        assert feed.sent == [total, total]

    def test_workers_at_the_same_cursor_share_one_key_list(self, feed):
        feed, _ = feed
        dictionary = KeyDictionary()
        dictionary.intern_keys(["a", "b", "c"])
        gathers = []
        decode = dictionary.decode

        class Counting:
            def decode(self, ids):
                gathers.append((int(ids[0]), int(ids[-1]) + 1))
                return decode(ids)

        for worker_id in (0, 1):
            feed.send_if_needed(worker_id, Counting(), 3)
        feed.send_if_needed(0, Counting(), 3)  # already caught up: no send
        assert gathers == [(0, 3)]
        dictionary.intern_keys(["d"])
        feed.send_if_needed(0, Counting(), 4)
        feed.replay_to(1, 1)
        feed.send_if_needed(1, Counting(), 4)  # a different start: its own gather
        assert gathers == [(0, 3), (3, 4), (0, 4)]
