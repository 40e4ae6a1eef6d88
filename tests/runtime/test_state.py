"""Unit tests of the shared cluster-state block (in-process, no shm)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ClusterRuntimeError
from repro.runtime.state import (
    ClusterSnapshot,
    SharedClusterState,
    StartGate,
    loads_imbalance,
    state_words,
)
from repro.simulation.metrics import LoadTracker


def make_state(num_workers: int = 4, head_capacity: int = 8) -> SharedClusterState:
    buffer = np.zeros(state_words(num_workers, head_capacity), dtype=np.int64)
    return SharedClusterState(buffer, num_workers, head_capacity, create=True)


class TestFlags:
    def test_fresh_state_is_clear(self):
        state = make_state()
        assert not state.aborted()
        assert not state.source_done()

    def test_flag_transitions(self):
        state = make_state()
        state.abort()
        state.mark_source_done()
        assert state.aborted() and state.source_done()
        assert not state.source_finished()
        state.mark_source_finished()
        assert state.source_done() and state.source_finished()


class TestStartGate:
    def test_release_wakes_a_waiter_and_later_waiters_pass(self):
        # A child closes its copy of the write end at the line; the
        # coordinator's release closes the last one.  In one process the
        # waiter's own release is the last, so wait() returns at once, and
        # so does every later wait (a respawn forked after the start).
        gate = StartGate()
        gate.wait()
        gate.wait()
        gate.close()
        gate.close()  # idempotent

    def test_a_waiter_blocks_until_every_write_end_is_closed(self):
        import os
        import threading

        gate = StartGate()
        # A second write end stands for the coordinator's copy.
        coordinator_copy = os.dup(gate._write_fd)
        passed = threading.Event()
        waiter = threading.Thread(target=lambda: (gate.wait(), passed.set()))
        waiter.start()
        assert not passed.wait(0.05)
        os.close(coordinator_copy)
        assert passed.wait(5.0)
        waiter.join()
        gate.close()


class TestWorkerSlots:
    def test_processed_counts_accumulate(self):
        state = make_state(num_workers=2)
        state.add_processed(0, 10)
        state.add_processed(0, 5)
        state.add_processed(1, 7)
        assert state.worker_processed() == [15, 7]

    def test_heartbeat_age(self):
        state = make_state(num_workers=2)
        assert state.heartbeat_age_s(0) == float("inf")
        state.heartbeat(0)
        assert state.heartbeat_age_s(0) < 1.0
        assert state.heartbeat_age_s(1) == float("inf")

    def test_out_of_range_worker_raises(self):
        state = make_state(num_workers=2)
        with pytest.raises(ClusterRuntimeError):
            state.heartbeat(2)
        with pytest.raises(ClusterRuntimeError):
            state.add_processed(-1, 1)


class TestFencing:
    def test_fence_handshake_transitions(self):
        state = make_state(num_workers=2)
        assert not state.worker_fenced(1)
        state.fence_worker(1)
        assert state.worker_fenced(1)
        assert not state.fence_acknowledged(1)
        state.acknowledge_fence(1)
        assert state.worker_fenced(1)  # acked is still out of service
        assert state.fence_acknowledged(1)
        state.clear_fence(1)
        assert not state.worker_fenced(1)
        assert not state.fence_acknowledged(1)

    def test_fences_are_per_worker(self):
        state = make_state(num_workers=3)
        state.fence_worker(1)
        assert [state.worker_fenced(w) for w in range(3)] == [False, True, False]

    def test_reset_worker_clears_heartbeat_keeps_ledger(self):
        state = make_state(num_workers=2)
        state.heartbeat(0)
        state.add_processed(0, 42)
        state.reset_worker(0)
        assert state.heartbeat_age_s(0) == float("inf")
        # The processed count is the slot's cumulative delivered ledger —
        # it must survive the respawn.
        assert state.worker_processed() == [42, 0]

    def test_a_claim_is_in_flight_until_its_delivery(self):
        state = make_state(num_workers=2)
        state.add_processed(1, 100)  # an earlier incarnation's ledger
        assert state.inflight_messages(1) == 0
        state.claim_frame(1, 30)
        assert [state.inflight_messages(w) for w in range(2)] == [0, 30]
        state.add_processed(1, 30)  # the delivery retires the claim
        assert state.inflight_messages(1) == 0
        state.claim_frame(1, 7)
        state.reset_worker(1)  # counted by the supervisor, then cleared
        assert state.inflight_messages(1) == 0
        assert state.worker_processed() == [0, 130]

    def test_fence_and_head_sections_do_not_alias(self):
        # Regression for layout shifts of the per-worker sections: a fence
        # write must never land in the head-summary region.
        state = make_state(num_workers=2, head_capacity=2)
        state.publish_routing([1, 1], 2, 3, head={10: 100, 12: 50})
        state.fence_worker(0)
        state.fence_worker(1)
        state.claim_frame(1, 5)
        assert state.head_summary() == {10: 100, 12: 50}
        assert state.source_loads() == [1, 1]


class TestRoutingPublication:
    def test_loads_and_counters_roundtrip(self):
        state = make_state(num_workers=3)
        state.publish_routing([4, 5, 6], messages_routed=15, dict_high_water=9)
        assert state.source_loads() == [4, 5, 6]
        assert state.messages_routed() == 15
        assert state.dict_high_water() == 9

    def test_head_summary_keeps_largest_entries(self):
        state = make_state(num_workers=2, head_capacity=2)
        head = {10: 100, 11: 5, 12: 50}
        state.publish_routing([1, 1], 2, 13, head=head)
        assert state.head_summary() == {10: 100, 12: 50}

    def test_snapshot_collects_everything(self):
        state = make_state(num_workers=2)
        state.publish_routing([3, 1], 4, 2, head={0: 3})
        state.add_processed(0, 3)
        state.add_processed(1, 1)
        snapshot = state.snapshot(elapsed_s=0.5)
        assert snapshot.elapsed_s == 0.5
        assert snapshot.messages_routed == 4
        assert snapshot.source_loads == [3, 1]
        assert snapshot.worker_processed == [3, 1]
        assert snapshot.head == {0: 3}

    def test_attach_sees_creators_writes(self):
        buffer = np.zeros(state_words(2, 4), dtype=np.int64)
        creator = SharedClusterState(buffer, 2, 4, create=True)
        creator.publish_routing([7, 9], 16, 3)
        attached = SharedClusterState(buffer)
        assert attached.num_workers == 2
        assert attached.source_loads() == [7, 9]

    def test_attach_to_uninitialised_buffer_raises(self):
        with pytest.raises(ClusterRuntimeError):
            SharedClusterState(np.zeros(64, dtype=np.int64))


class TestImbalance:
    def test_matches_simulator_load_tracker(self):
        loads = [120, 80, 95, 105]
        tracker = LoadTracker(num_workers=4)
        for worker, load in enumerate(loads):
            for _ in range(load):
                tracker.record(worker)
        assert loads_imbalance(loads) == pytest.approx(tracker.imbalance())

    def test_zero_loads_give_zero_imbalance(self):
        assert loads_imbalance([0, 0, 0]) == 0.0
        assert loads_imbalance([]) == 0.0

    def test_snapshot_imbalance_property(self):
        snapshot = ClusterSnapshot(
            elapsed_s=1.0,
            messages_routed=4,
            worker_processed=[3, 1],
        )
        assert snapshot.imbalance == pytest.approx(3 / 4 - 1 / 2)
