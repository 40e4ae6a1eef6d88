"""In-process tests of ``worker_main``: its service clock, its start and its finish.

The worker runs in this process over a plain-buffer ring and real pipes.
Its frames are published before it starts, or by a state whose abort check
— which ``pop`` consults exactly when it finds the ring empty — publishes
the next batch, so where each busy period ends is scripted, not timed.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import threading
import time

import numpy as np
import pytest

from repro.runtime.faults import WorkerFaults
from repro.runtime.ring import SpscRing, ring_words
from repro.runtime.state import SharedClusterState, StartGate, state_words
from repro.runtime import worker as worker_module
from repro.runtime.worker import WorkerResult, worker_main

SERVICE_NS = 40_000
KEYS = ["k0", "k1", "k2", "k3"]


class ScriptedState(SharedClusterState):
    """A one-worker state that publishes the worker's stream period by period.

    The first period is in the ring from the start.  ``pop`` asks
    :meth:`aborted` after finding the ring empty, so each later period is
    published then, and starts a busy period of its own; the last is
    followed by the EOF.  Asked with nothing left to publish, it aborts, so
    a miscounting test fails instead of waiting for ever.
    """

    def __init__(self, producer: SpscRing, periods: list[list[int]]) -> None:
        super().__init__(np.zeros(state_words(1), dtype=np.int64), 1, create=True)
        self.producer = producer
        self.periods = list(periods)
        self.publish_next()

    def publish_next(self) -> None:
        for size in self.periods.pop(0):
            self.producer.push(
                np.arange(size, dtype=np.int64) % len(KEYS), dict_high_water=len(KEYS)
            )
        if not self.periods:
            self.producer.close()

    def aborted(self) -> bool:
        if super().aborted() or self.producer.pending_words():
            return super().aborted()
        if not self.periods:
            self.abort()
            return True
        self.publish_next()
        return False


def scripted(*periods: list[int]) -> tuple[SpscRing, ScriptedState]:
    """The worker's view of a ring and the state that feeds it ``periods``."""
    buffer = np.zeros(ring_words(1024), dtype=np.int64)
    producer = SpscRing(buffer, 1024, create=True)
    return SpscRing(buffer), ScriptedState(producer, list(periods))


def run_worker(ring, state, service_ns=0, faults=None, start=None) -> list:
    """Run ``worker_main`` to its end; what it reported, in order."""
    delta_recv, delta_send = multiprocessing.Pipe(duplex=False)
    result_recv, result_send = multiprocessing.Pipe(duplex=False)
    try:
        delta_send.send(("delta", 0, KEYS))
        worker_main(0, ring, state, delta_recv, result_send, service_ns, faults, start)
        reports = []
        while True:  # the worker closed its end on the way out
            try:
                reports.append(result_recv.recv())
            except EOFError:
                return reports
    finally:
        for end in (delta_recv, delta_send, result_recv, result_send):
            end.close()


@pytest.fixture
def slept(monkeypatch):
    """Replace the clock the worker sleeps on with one that overruns.

    Each ``time.sleep`` request is recorded (in ns) and advances the fake
    ``perf_counter_ns`` by the request plus ``slept.overrun``.
    """

    class Sleeps(list):
        overrun = 0
        now = 0

    sleeps = Sleeps()

    def sleep(seconds: float) -> None:
        request = round(seconds * 1e9)
        sleeps.append(request)
        sleeps.now += request + sleeps.overrun

    monkeypatch.setattr(time, "sleep", sleep)
    monkeypatch.setattr(time, "perf_counter_ns", lambda: sleeps.now)
    return sleeps


class TestServiceClock:
    def test_a_busy_period_blocks_its_service_plus_one_overrun(self, slept):
        # Two busy periods: [3, 2] is in the ring at the start; [4, 1] and
        # the EOF arrive only after the worker found the ring empty.
        slept.overrun = 7_000
        ring, state = scripted([3, 2], [4, 1])
        reports = run_worker(ring, state, SERVICE_NS)

        assert reports[-1][0] == "result"
        assert reports[-1][1].processed == 10
        assert reports[-1][1].empty_polls == 1
        assert reports[-1][1].last_overrun_ns == slept.overrun
        # Each frame but a period's first asks its service less the
        # overrun carried from the previous sleep ...
        assert slept == [
            3 * SERVICE_NS,
            2 * SERVICE_NS - slept.overrun,
            4 * SERVICE_NS,  # ... and after the wait nothing is carried.
            SERVICE_NS - slept.overrun,
        ]
        # So each period blocks its service plus one overrun, not one per frame.
        for requests, messages in ((slept[:2], 5), (slept[2:], 5)):
            blocked = sum(request + slept.overrun for request in requests)
            assert blocked == SERVICE_NS * messages + slept.overrun

    @pytest.mark.parametrize("overrun", [7_000, 50_000, 130_000])
    @pytest.mark.parametrize("service_factor", [1, 3])
    def test_overruns_are_repaid_within_the_period(self, slept, overrun, service_factor):
        # An overrun past a frame's whole service skips that frame's sleep
        # and carries the rest; the period still blocks its service plus
        # exactly one overrun, whatever the framing.
        slept.overrun = overrun
        frame_sizes = [3, 1, 1, 4, 2, 1, 5]
        ring, state = scripted(frame_sizes)
        faults = WorkerFaults(service_factor=service_factor)
        reports = run_worker(ring, state, SERVICE_NS, faults)

        service = SERVICE_NS * service_factor
        assert reports[-1][1].processed == sum(frame_sizes)
        assert slept[0] == 3 * service
        assert slept.now == service * sum(frame_sizes) + overrun
        assert reports[-1][1].last_overrun_ns == overrun
        if overrun > service:
            assert len(slept) < len(frame_sizes)

    def test_no_service_time_never_sleeps(self, slept):
        reports = run_worker(*scripted([3, 2]))
        assert reports[-1][1].processed == 5
        assert slept == []
        assert reports[-1][1].last_overrun_ns == 0

    def test_the_first_frame_is_stamped_on_the_monotonic_clock(self):
        before = time.monotonic_ns()
        reports = run_worker(*scripted([3, 2]))
        assert before < reports[-1][1].first_frame_ns < time.monotonic_ns()


class TestStartLine:
    def test_a_worker_serves_its_ring_without_waiting_for_the_release(self):
        # The coordinator's copy of the write end keeps the line closed;
        # the worker must drain its ring regardless, report, and leave its
        # own copy closed so the line opens once the coordinator's goes.
        gate = StartGate()
        coordinator_copy = os.dup(gate._write_fd)
        ring, state = scripted([3, 2, 4])
        reports: list = []
        worker = threading.Thread(
            target=lambda: reports.extend(run_worker(ring, state, start=gate)),
            daemon=True,
        )
        worker.start()
        try:
            worker.join(timeout=10.0)
            assert not worker.is_alive(), "the worker waited at the start line"
            assert [report[0] for report in reports] == ["ready", "result"]
            result = reports[1][1]
            assert isinstance(result, WorkerResult)
            assert (result.processed, result.frames) == (9, 3)
            os.close(coordinator_copy)
            coordinator_copy = -1
            readable, _, _ = select.select([gate._read_fd], [], [], 5.0)
            assert readable, "a copy of the write end is still open"
            assert os.read(gate._read_fd, 1) == b""
        finally:
            state.abort()
            if coordinator_copy >= 0:
                os.close(coordinator_copy)
            worker.join(timeout=5.0)
            gate.close()


class TestFinishLine:
    @pytest.fixture
    def pipes(self):
        delta_recv, delta_send = multiprocessing.Pipe(duplex=False)
        result_recv, result_send = multiprocessing.Pipe(duplex=False)
        delta_send.send(("delta", 0, KEYS))
        yield delta_recv, result_recv, result_send
        for end in (delta_recv, delta_send, result_recv, result_send):
            end.close()

    def test_a_reported_worker_waits_until_the_coordinators_copy_closes(self, pipes):
        delta_recv, result_recv, result_send = pipes
        gate = StartGate()
        coordinator_copy = os.dup(gate._write_fd)
        ring, state = scripted([3, 2])
        worker = threading.Thread(
            target=worker_main,
            args=(0, ring, state, delta_recv, result_send, 0, None, None, gate),
            daemon=True,
        )
        worker.start()
        try:
            assert result_recv.poll(10.0) and result_recv.recv() == ("ready",)
            assert result_recv.poll(10.0)
            kind, result = result_recv.recv()
            assert kind == "result" and result.processed == 5
            worker.join(timeout=0.2)
            assert worker.is_alive(), "the worker left before the line opened"
            os.close(coordinator_copy)
            coordinator_copy = -1
            worker.join(timeout=5.0)
            assert not worker.is_alive(), "the open line did not end the worker"
        finally:
            state.abort()
            if coordinator_copy >= 0:
                os.close(coordinator_copy)
            worker.join(timeout=5.0)
            gate.close()

    def test_an_error_report_does_not_wait(self, pipes, monkeypatch):
        # The frame claims one dictionary entry more than any delta brings:
        # the worker starves, reports the error and leaves, line or no line.
        monkeypatch.setattr(worker_module, "DELTA_STARVATION_TIMEOUT_S", 0.05)
        delta_recv, result_recv, result_send = pipes
        gate = StartGate()
        coordinator_copy = os.dup(gate._write_fd)
        buffer = np.zeros(ring_words(1024), dtype=np.int64)
        producer = SpscRing(buffer, 1024, create=True)
        producer.push(np.arange(3, dtype=np.int64), dict_high_water=len(KEYS) + 1)
        state = SharedClusterState(np.zeros(state_words(1), dtype=np.int64), 1, create=True)
        worker = threading.Thread(
            target=worker_main,
            args=(0, SpscRing(buffer), state, delta_recv, result_send, 0, None, None, gate),
            daemon=True,
        )
        worker.start()
        try:
            worker.join(timeout=10.0)
            assert not worker.is_alive(), "an error report waited at the line"
            assert result_recv.recv() == ("ready",)
            assert result_recv.recv()[0] == "error"
        finally:
            state.abort()
            os.close(coordinator_copy)
            worker.join(timeout=5.0)
            gate.close()
