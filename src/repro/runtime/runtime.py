"""Coordinator of the multi-process cluster runtime.

``run_cluster`` owns every resource of one run: the shared state block, one
ring buffer per worker, the delta/result pipes, the source and worker
processes (all spawned under the ``fork`` start method so shared-memory
views and pipe ends are inherited, never pickled), a monitor thread that
snapshots the shared state and watches liveness, and a *supervisor* that
turns detected failures into recoveries.

Failure handling is supervised, not merely detected.  When a worker dies
(process liveness), wedges (heartbeat age) or reports a protocol error, the
supervisor:

1. **fences** the slot in shared state — the source stops pushing into its
   ring immediately and redirects the slot's share to the survivors;
2. reaps the dead incarnation and **drains the ring's in-flight frames**,
   itemising the exact loss (frames and the messages they carried);
3. **respawns** the worker (up to :attr:`ClusterConfig.max_restarts`) over
   a re-initialised ring, replays the dictionary to the fresh replica and
   tells the source to re-adopt its routing state through the
   partitioner's ``export_state``/``adopt_state`` hot-handoff;
4. past the restart budget it **degrades**: the redirect to the survivors
   becomes permanent and the run completes on the remaining workers
   (``degrade_when_exhausted=False`` restores the strict PR-8 behaviour of
   raising :class:`~repro.exceptions.WorkerCrashError`).

A worker that fails *after* the source finished its stream is salvaged in
place — its delivered-message ledger lives in shared state — rather than
respawned into a stream that has already ended.  Every recovery is priced
through the elasticity migration accountant (see ``runtime/source.py``)
and itemised in the :class:`ClusterResult`.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_readable
from typing import Any, Callable

from repro.exceptions import (
    ClusterRuntimeError,
    ConfigurationError,
    WorkerCrashError,
)
from repro.execution import ExecutionMode, ModeLike
from repro.runtime.faults import FaultPlan
from repro.runtime.ring import Doorbell, SpscRing, ring_words
from repro.runtime.source import source_main
from repro.runtime.state import (
    DEFAULT_HEAD_CAPACITY,
    ClusterSnapshot,
    SharedClusterState,
    loads_imbalance,
    state_words,
)
from repro.runtime.worker import WorkerResult, worker_main

#: Sentinel worker id the monitor uses for the source process.
SOURCE_ID = -1

#: Grace (seconds) between a watched process exiting with code 0 and the
#: monitor calling it a failure — a finished worker sends its result and
#: exits, and the coordinator needs a beat to drain the pipe.  A non-zero
#: exit code skips the grace: nothing clean exits that way.
_CLEAN_EXIT_GRACE_S = 1.0


@dataclass(slots=True)
class ClusterConfig:
    """Parameters of one cluster run.

    The workload defaults to a Zipf stream (``skew``/``num_keys``/
    ``num_messages``); ``workload_factory`` overrides it with any workload
    exposing ``iter_batches_columnar``.  ``mode`` must be columnar — the
    rings carry interned ``int64`` id arrays, scalar objects never cross a
    process boundary.

    ``service_ns`` is the modelled per-message service time of a worker
    (I/O-bound operator work; the worker *blocks*, it does not burn CPU).

    Fault tolerance knobs:

    ``inject``
        a :class:`~repro.runtime.faults.FaultPlan` (or its spec string,
        e.g. ``"crash@w2:5000,slow@w0:3x"``) of deterministic faults to
        arm in the workers — see ``runtime/faults.py`` for the grammar.
    ``max_restarts``
        supervised respawns allowed **per worker slot** before the slot is
        given up on.
    ``degrade_when_exhausted``
        with the budget spent, ``True`` remaps the slot's share to the
        survivors and completes the run degraded; ``False`` raises
        :class:`~repro.exceptions.WorkerCrashError` (the strict pre-
        supervision behaviour; so does ``max_restarts=0`` with it).
    ``startup_grace_s``
        how long a freshly forked (or respawned) worker may run without a
        first heartbeat before the monitor declares it hung.  Heartbeat
        *age* only applies after the first beat; a slow-forking worker has
        no beats at all (``heartbeat_age_s == inf``) and is governed by
        this grace instead.
    ``recovery_linger_s``
        how long the source waits at end-of-stream for recoveries still in
        flight (a replacement spawned moments before EOF must still get
        its dictionary replay and its EOF frame).
    """

    scheme: str = "PKG"
    num_workers: int = 4
    num_messages: int = 50_000
    num_keys: int = 5_000
    skew: float = 1.4
    seed: int = 0
    scheme_options: dict[str, Any] = field(default_factory=dict)
    mode: ModeLike = "columnar:512"
    workload_factory: Callable[[], Any] | None = None
    service_ns: int = 10_000
    ring_capacity_words: int = 1 << 14
    head_capacity: int = DEFAULT_HEAD_CAPACITY
    publish_every: int = 8
    snapshot_interval_s: float = 0.02
    heartbeat_timeout_s: float = 10.0
    push_timeout_s: float = 60.0
    startup_timeout_s: float = 30.0
    startup_grace_s: float = 5.0
    recovery_linger_s: float = 30.0
    inject: FaultPlan | str | None = None
    max_restarts: int = 1
    degrade_when_exhausted: bool = True

    def __post_init__(self) -> None:
        self.mode = ExecutionMode.coerce(self.mode)
        if not self.mode.is_columnar:
            raise ConfigurationError(
                "the cluster runtime is columnar-only: rings carry int64 "
                f"key-id arrays, got mode {self.mode.spec!r}"
            )
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.mode.batch_size * 2 > self.ring_capacity_words:
            raise ConfigurationError(
                f"ring capacity {self.ring_capacity_words} words is too "
                f"small for batch size {self.mode.batch_size}"
            )
        self.inject = FaultPlan.coerce(self.inject)
        if self.inject is not None and self.inject.max_worker_id >= self.num_workers:
            raise ConfigurationError(
                f"fault plan {self.inject.spec!r} names worker "
                f"{self.inject.max_worker_id}, but the cluster has workers "
                f"[0, {self.num_workers})"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.startup_grace_s <= 0:
            raise ConfigurationError(
                f"startup_grace_s must be > 0, got {self.startup_grace_s}"
            )

    def build_workload(self):
        if self.workload_factory is not None:
            return self.workload_factory()
        from repro.workloads.zipf_stream import ZipfWorkload

        return ZipfWorkload(
            exponent=self.skew,
            num_keys=self.num_keys,
            num_messages=self.num_messages,
            seed=self.seed,
        )


@dataclass(slots=True)
class ClusterResult:
    """The outcome of one cluster run.

    ``worker_processed`` counts messages each slot *delivered* (processed
    by any incarnation, plus redirected share it absorbed for down peers) —
    sourced from the shared ledger, so it is exact across restarts.  On a
    fault-free run ``messages_total == sum(worker_processed)`` equals the
    routed stream; on a recovered run the difference is itemised:
    ``messages_lost`` in-flight messages died with crashed incarnations,
    ``messages_redirected`` were delivered by survivors instead of the
    slot they were routed to.
    """

    scheme: str
    num_workers: int
    mode: str
    messages_total: int
    elapsed_s: float
    agg_msgs_per_sec: float
    worker_processed: list[int]
    imbalance: float
    source_loads: list[int]
    head: dict
    dict_entries: int
    service_ns: int
    worker_results: list[WorkerResult]
    snapshots: list[ClusterSnapshot]
    restarts: int = 0
    frames_lost: int = 0
    messages_lost: int = 0
    messages_redirected: int = 0
    recovery_seconds: float = 0.0
    lost_per_worker: list[int] = field(default_factory=list)
    redirected_out: list[int] = field(default_factory=list)
    redirected_in: list[int] = field(default_factory=list)
    degraded_workers: list[int] = field(default_factory=list)
    recovery_log: list[str] = field(default_factory=list)
    #: The source's migration report: every recovery priced in the same
    #: keys-moved / entries-migrated currency as elasticity rescales.
    migration: Any = None

    @property
    def recovered(self) -> bool:
        """True when the supervisor intervened at least once."""
        return bool(self.recovery_log)

    @property
    def degraded(self) -> bool:
        """True when at least one slot ran out of restarts and was remapped."""
        return bool(self.degraded_workers)

    def summary(self) -> dict[str, Any]:
        """Flat dict for tables, benchmarks and the CLI."""
        summary = {
            "scheme": self.scheme,
            "num_workers": self.num_workers,
            "mode": self.mode,
            "messages": self.messages_total,
            "elapsed_s": round(self.elapsed_s, 4),
            "agg_msgs_per_sec": round(self.agg_msgs_per_sec, 1),
            "imbalance": self.imbalance,
            "min_worker_processed": min(self.worker_processed),
            "max_worker_processed": max(self.worker_processed),
            "dict_entries": self.dict_entries,
            "empty_polls": sum(w.empty_polls for w in self.worker_results),
        }
        if self.recovered:
            summary.update(
                {
                    "restarts": self.restarts,
                    "frames_lost": self.frames_lost,
                    "messages_lost": self.messages_lost,
                    "messages_redirected": self.messages_redirected,
                    "recovery_seconds": round(self.recovery_seconds, 4),
                    "degraded_workers": list(self.degraded_workers),
                }
            )
        return summary


class _Monitor(threading.Thread):
    """Snapshots the shared state and watches process liveness.

    Failures are *queued* for the supervisor, not acted on: the monitor
    never aborts the run.  A watched process leaves the watch set the
    moment its failure is queued (or its result arrives), so one failure
    is reported exactly once; the supervisor re-registers the replacement
    incarnation after a respawn.
    """

    def __init__(self, state, config, started_at) -> None:
        super().__init__(name="cluster-monitor", daemon=True)
        self._state = state
        self._config = config
        self._started_at = started_at
        self._halt = threading.Event()
        self._lock = threading.Lock()
        #: pid -> (process, watch_since); pid SOURCE_ID is the source.
        self._watch: dict[int, tuple[Any, float]] = {}
        self._dead_since: dict[int, float] = {}
        self._failures: list[tuple[int, Any, str]] = []
        self.snapshots: list[ClusterSnapshot] = []

    def watch(self, pid: int, process) -> None:
        with self._lock:
            self._watch[pid] = (process, time.monotonic())
            self._dead_since.pop(pid, None)

    def forget(self, pid: int) -> None:
        """Stop watching a process (result arrived, or being recovered)."""
        with self._lock:
            self._watch.pop(pid, None)
            self._dead_since.pop(pid, None)

    def take_failure(self) -> tuple[int, Any, str] | None:
        """Pop the oldest queued failure: ``(pid, process, reason)``."""
        with self._lock:
            if self._failures:
                return self._failures.pop(0)
        return None

    def has_failures(self) -> bool:
        with self._lock:
            return bool(self._failures)

    def stop(self) -> None:
        self._halt.set()

    def _fail(self, pid: int, process, reason: str) -> None:
        self._watch.pop(pid, None)
        self._dead_since.pop(pid, None)
        self._failures.append((pid, process, reason))

    def _check_liveness(self) -> None:
        state = self._state
        now = time.monotonic()
        with self._lock:
            for pid, (process, watch_since) in list(self._watch.items()):
                who = "source" if pid == SOURCE_ID else f"worker {pid}"
                if not process.is_alive():
                    exitcode = process.exitcode
                    if exitcode == 0:
                        # A clean exit usually precedes the coordinator
                        # draining the result pipe by a moment.
                        first_seen = self._dead_since.setdefault(pid, now)
                        if now - first_seen < _CLEAN_EXIT_GRACE_S:
                            continue
                    self._fail(
                        pid,
                        process,
                        f"{who} died (exit code {exitcode}) before "
                        f"finishing its stream",
                    )
                    continue
                if pid == SOURCE_ID or not state.started():
                    continue
                if state.worker_fenced(pid):
                    continue  # mid-recovery; the supervisor owns this slot
                age = state.heartbeat_age_s(pid)
                if age == float("inf"):
                    # No heartbeat yet: a forking/startup phase, governed
                    # by the startup grace, not the heartbeat timeout.
                    if now - watch_since > self._config.startup_grace_s:
                        self._fail(
                            pid,
                            process,
                            f"worker {pid} never heartbeat within the "
                            f"{self._config.startup_grace_s}s startup grace",
                        )
                    continue
                if age > self._config.heartbeat_timeout_s:
                    self._fail(
                        pid,
                        process,
                        f"worker {pid} stopped heartbeating "
                        f"({age:.1f}s > {self._config.heartbeat_timeout_s}s "
                        f"timeout)",
                    )

    def run(self) -> None:
        interval = self._config.snapshot_interval_s
        while not self._halt.wait(interval):
            self.snapshots.append(
                self._state.snapshot(time.perf_counter() - self._started_at)
            )
            self._check_liveness()


class _Supervisor:
    """Turns one detected worker failure into one recovery action.

    Owned and driven by the coordinator's result loop (single-threaded);
    the monitor only queues failures.  Per failure:
    fence -> reap -> drain in-flight -> respawn | degrade | salvage.
    """

    def __init__(
        self,
        config: ClusterConfig,
        ctx,
        state: SharedClusterState,
        rings: list[SpscRing],
        ring_shms,
        delta_pipe_pools,
        result_pipes,
        processes,
        monitor: _Monitor,
        control_send,
    ) -> None:
        self._config = config
        self._ctx = ctx
        self._state = state
        self._rings = rings
        self._ring_shms = ring_shms
        self._delta_pipe_pools = delta_pipe_pools
        self._result_pipes = result_pipes
        self._processes = processes
        self._monitor = monitor
        self._control_send = control_send
        self._incarnation = [0] * config.num_workers
        self.restarts = 0
        self.frames_lost = 0
        self.messages_lost = 0
        self.lost_per_worker = [0] * config.num_workers
        self.recovery_seconds = 0.0
        self.recovery_log: list[str] = []
        self.degraded: set[int] = set()
        #: Results the supervisor synthesized for slots that cannot report
        #: for themselves (degraded, or failed after end-of-stream).
        self.salvaged_results: dict[int, WorkerResult] = {}

    # ------------------------------------------------------------------ #
    def _log(self, message: str) -> None:
        self.recovery_log.append(message)

    def _tell_source(self, message) -> None:
        try:
            self._control_send.send(message)
        except (BrokenPipeError, OSError):
            pass  # source already gone; its own failure is handled separately

    def _reap(self, process) -> None:
        process.join(timeout=0.5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=2.0)

    def _await_fence_ack(self, worker_id: int, timeout_s: float = 1.0) -> bool:
        """Wait for the source to promise it is off the fenced ring.

        Draining or re-initialising the ring while the source could still
        be mid-push would corrupt it (and silently lose the late frames
        from the in-flight count).  The source checks fences every batch
        and inside every blocked push, so the ack lands within one batch
        cycle; the timeout only matters when the source itself is dead or
        done — both cases where it no longer touches the ring.
        """
        deadline = time.monotonic() + timeout_s
        while not self._state.fence_acknowledged(worker_id):
            if (
                self._state.source_done()
                or self._state.aborted()
                or time.monotonic() > deadline
            ):
                return False
            time.sleep(0.001)
        return True

    def _drain(self, worker_id: int) -> None:
        drain = self._rings[worker_id].drain_inflight()
        self.frames_lost += drain.frames
        self.messages_lost += drain.messages
        self.lost_per_worker[worker_id] += drain.messages

    def _synthesize_result(self, worker_id: int) -> WorkerResult:
        processed = self._state.worker_processed()[worker_id]
        result = WorkerResult(
            worker_id=worker_id,
            processed=processed,
            frames=0,
            dict_entries=0,
            salvaged=True,
        )
        self.salvaged_results[worker_id] = result
        return result

    def _respawn(self, worker_id: int, incarnation: int) -> bool:
        """Fork and barrier one replacement; True when it came up ready."""
        config = self._config
        # The replacement keeps its slot's doorbell: the source holds on to
        # its producer view (and that view's write end) across rebind(), so
        # a fresh pipe would never be rung and the new incarnation would
        # silently run on 2 ms backstops.
        ring = SpscRing(
            self._ring_shms[worker_id].buf,
            config.ring_capacity_words,
            create=True,
            doorbell=self._rings[worker_id].doorbell,
        )
        self._rings[worker_id] = ring
        self._state.reset_worker(worker_id)
        recv, send = self._ctx.Pipe(duplex=False)
        old_recv, old_send = self._result_pipes[worker_id]
        self._result_pipes[worker_id] = (recv, send)
        for end in (old_recv, old_send):
            try:
                end.close()
            except OSError:
                pass
        faults = (
            config.inject.for_worker(worker_id, incarnation)
            if config.inject is not None
            else None
        )
        process = self._ctx.Process(
            target=worker_main,
            name=f"cluster-worker-{worker_id}.{incarnation}",
            args=(
                worker_id,
                ring,
                self._state,
                self._delta_pipe_pools[worker_id][incarnation][0],
                send,
                config.service_ns,
                faults,
            ),
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process
        deadline = time.monotonic() + config.startup_timeout_s
        while not self._state.worker_ready(worker_id):
            if not process.is_alive() or time.monotonic() > deadline:
                self._reap(process)
                return False
            time.sleep(0.002)
        return True

    # ------------------------------------------------------------------ #
    def handle(
        self,
        worker_id: int,
        process,
        reason: str,
        unaccounted_messages: int = 0,
        unaccounted_frames: int = 0,
    ) -> None:
        """Recover one failed worker slot (or raise in strict mode)."""
        config = self._config
        state = self._state
        t0 = time.perf_counter()
        # Snapshot the stream phase BEFORE fencing: raising the fence
        # unblocks a source stuck pushing to the dead ring, which can let
        # it redirect the remainder and finish while we are still reaping.
        # The salvage-vs-respawn decision must reflect the phase at
        # detection time, or a mid-stream hang would nondeterministically
        # be treated as an end-of-stream failure.
        source_was_done = state.source_done()
        state.fence_worker(worker_id)
        self._monitor.forget(worker_id)
        self._reap(process)
        if not source_was_done:
            self._await_fence_ack(worker_id)
        self._drain(worker_id)
        self.messages_lost += unaccounted_messages
        self.frames_lost += unaccounted_frames
        self.lost_per_worker[worker_id] += unaccounted_messages

        if source_was_done:
            # The stream already ended: nothing left to deliver to a
            # replacement.  Salvage the slot's ledger in place; the fence
            # stays up so the source's EOF linger skips the dead ring.
            self._synthesize_result(worker_id)
            self._tell_source(("salvaged", worker_id))
            self.recovery_seconds += time.perf_counter() - t0
            self._log(
                f"worker {worker_id}: failed at end-of-stream ({reason}); "
                f"ledger salvaged, no respawn"
            )
            return

        incarnation = self._incarnation[worker_id] + 1
        while incarnation <= config.max_restarts:
            self._incarnation[worker_id] = incarnation
            self.restarts += 1
            if self._respawn(worker_id, incarnation):
                state.clear_fence(worker_id)
                self._tell_source(("recover", worker_id, incarnation))
                self._monitor.watch(worker_id, self._processes[worker_id])
                self.recovery_seconds += time.perf_counter() - t0
                self._log(
                    f"worker {worker_id}: {reason}; respawned as "
                    f"incarnation {incarnation} "
                    f"({self.lost_per_worker[worker_id]} in-flight messages "
                    f"lost)"
                )
                return
            self._log(
                f"worker {worker_id}: replacement incarnation "
                f"{incarnation} failed to start"
            )
            incarnation += 1

        if config.degrade_when_exhausted:
            self.degraded.add(worker_id)
            self._synthesize_result(worker_id)
            self._tell_source(("degrade", worker_id))
            self.recovery_seconds += time.perf_counter() - t0
            self._log(
                f"worker {worker_id}: {reason}; restart budget "
                f"({config.max_restarts}) exhausted, share remapped to "
                f"survivors"
            )
            return

        state.abort()
        raise WorkerCrashError(
            worker_id,
            f"cluster run failed: {reason}; restart budget "
            f"({config.max_restarts}) exhausted and degradation disabled",
            partial={
                "worker_processed": state.worker_processed(),
                "messages_routed": state.messages_routed(),
            },
            restarts=self.restarts,
        )


def run_cluster(config: ClusterConfig) -> ClusterResult:
    """Run one columnar stream through a real multi-process cluster.

    Worker failures are supervised (fence, drain, respawn or degrade — see
    the module docstring); :class:`~repro.exceptions.WorkerCrashError` is
    raised only when recovery is disabled (``max_restarts=0`` with
    ``degrade_when_exhausted=False``), when the *source* fails, or when no
    worker survives.  :class:`~repro.exceptions.ClusterRuntimeError` covers
    protocol and startup failures.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ClusterRuntimeError(
            "the cluster runtime requires the 'fork' start method "
            "(POSIX-only): shared-memory views are inherited, not pickled"
        )
    ctx = multiprocessing.get_context("fork")
    n = config.num_workers

    state_shm = shared_memory.SharedMemory(
        create=True, size=state_words(n, config.head_capacity) * 8
    )
    ring_shms = [
        shared_memory.SharedMemory(
            create=True, size=ring_words(config.ring_capacity_words) * 8
        )
        for _ in range(n)
    ]
    state = SharedClusterState(
        state_shm.buf, n, config.head_capacity, create=True
    )
    # One doorbell per ring, made before any fork so the source (who rings)
    # and every incarnation of the worker (who waits) inherit both ends.
    doorbells = [Doorbell() for _ in range(n)]
    rings = [
        SpscRing(shm.buf, config.ring_capacity_words, create=True, doorbell=doorbell)
        for shm, doorbell in zip(ring_shms, doorbells)
    ]

    # One delta pipe per worker *incarnation*, created before any fork: the
    # source cannot receive new pipe ends after it forks, so the pool for
    # every allowed respawn must exist up front (slot k of a pool feeds the
    # k-th incarnation of that worker).
    incarnations = 1 + config.max_restarts
    delta_pipe_pools = [
        [ctx.Pipe(duplex=False) for _ in range(incarnations)] for _ in range(n)
    ]
    result_pipes = [ctx.Pipe(duplex=False) for _ in range(n)]
    source_pipe = ctx.Pipe(duplex=False)
    control_pipe = ctx.Pipe(duplex=False)
    plan = config.inject

    workers = [
        ctx.Process(
            target=worker_main,
            name=f"cluster-worker-{worker_id}",
            args=(
                worker_id,
                rings[worker_id],
                state,
                delta_pipe_pools[worker_id][0][0],
                result_pipes[worker_id][1],
                config.service_ns,
                plan.for_worker(worker_id, 0) if plan is not None else None,
            ),
            daemon=True,
        )
        for worker_id in range(n)
    ]
    source = ctx.Process(
        target=source_main,
        name="cluster-source",
        args=(
            config,
            rings,
            state,
            [[send for _, send in pool] for pool in delta_pipe_pools],
            source_pipe[1],
            control_pipe[0],
        ),
        daemon=True,
    )

    processes = {worker_id: process for worker_id, process in enumerate(workers)}
    processes[SOURCE_ID] = source
    monitor: _Monitor | None = None
    failure: ClusterRuntimeError | None = None
    try:
        for process in workers:
            process.start()
        source.start()

        # Startup barrier: every worker flags ready in shared state, the
        # source over its pipe; only then does the clock start — process
        # startup never pollutes the throughput measurement.
        deadline = time.monotonic() + config.startup_timeout_s
        source_ready = False
        while not (state.all_ready() and source_ready):
            if source_pipe[0].poll(0.005):
                message = source_pipe[0].recv()
                if message[0] == "ready":
                    source_ready = True
                elif message[0] == "error":
                    raise ClusterRuntimeError(
                        f"source failed during startup: {message[2]}"
                    )
            if any(not process.is_alive() for process in processes.values()):
                raise ClusterRuntimeError("a process died during startup")
            if time.monotonic() > deadline:
                raise ClusterRuntimeError(
                    f"cluster startup timed out after {config.startup_timeout_s}s"
                )

        started_at = time.perf_counter()
        monitor = _Monitor(state, config, started_at)
        for pid, process in processes.items():
            monitor.watch(pid, process)
        monitor.start()
        supervisor = _Supervisor(
            config,
            ctx,
            state,
            rings,
            ring_shms,
            delta_pipe_pools,
            result_pipes,
            processes,
            monitor,
            control_pipe[1],
        )
        state.release_start()

        def fail_run(failed_id: int, reason: str) -> None:
            state.abort()
            partial = {
                "worker_results": dict(worker_results),
                "worker_processed": state.worker_processed(),
                "messages_routed": state.messages_routed(),
            }
            raise WorkerCrashError(
                failed_id,
                f"cluster run failed: {reason}; salvaged results of "
                f"{sorted(worker_results)} of {n} workers",
                partial=partial,
                restarts=supervisor.restarts,
            )

        worker_results: dict[int, WorkerResult] = {}
        source_result: dict[str, Any] | None = None
        elapsed = 0.0
        #: Result pipes that raised on recv().  A pipe at EOF is always
        #: readable, so it must leave the wait set or the loop would spin
        #: until the monitor reports the death it belongs to.
        dead_pipes: set = set()
        while True:
            finished = set(worker_results) | set(supervisor.salvaged_results)
            if len(finished) >= n and source_result is not None:
                break
            failure = monitor.take_failure()
            if failure is not None:
                pid, process, reason = failure
                if pid == SOURCE_ID:
                    fail_run(SOURCE_ID, reason)
                if processes.get(pid) is process and pid not in finished:
                    # (a stale entry for an already-replaced incarnation,
                    # or a slot that already reported, is ignored)
                    supervisor.handle(pid, process, reason)
                continue
            # Block on the pipes still owed a message.  The timeout stays
            # because the monitor's failure queue has no descriptor.
            owed = {
                result_pipes[worker_id][0]: worker_id
                for worker_id in range(n)
                if worker_id not in finished
            }
            if source_result is None:
                owed[source_pipe[0]] = SOURCE_ID
            pending = [conn for conn in owed if conn not in dead_pipes]
            for conn in wait_readable(pending, timeout=0.002):
                pid = owed[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    dead_pipes.add(conn)  # died with its process; the monitor reports it
                    continue
                if message[0] == "error":
                    if pid == SOURCE_ID:
                        fail_run(SOURCE_ID, f"source failed: {message[2]}")
                    monitor.forget(pid)
                    supervisor.handle(
                        pid,
                        processes[pid],
                        f"worker {pid} failed: {message[2]}",
                        # Messages the worker had popped off the ring but
                        # not delivered when it died — invisible to the
                        # ring drain, itemised by the worker itself.
                        unaccounted_messages=(
                            message[3] if len(message) > 3 else 0
                        ),
                        unaccounted_frames=(
                            message[4] if len(message) > 4 else 0
                        ),
                    )
                    continue
                if pid == SOURCE_ID:
                    source_result = message[1]
                else:
                    worker_results[pid] = message[1]
                    supervisor.salvaged_results.pop(pid, None)
                monitor.forget(pid)
                elapsed = time.perf_counter() - started_at

        monitor.stop()
        monitor.join(timeout=5.0)
        for process in processes.values():
            process.join(timeout=10.0)

        # Delivered counts come from the shared ledger: cumulative across
        # incarnations of a slot, inclusive of redirected share absorbed
        # for down peers — WorkerResult.processed only covers one
        # incarnation's own lifetime.
        processed = state.worker_processed()
        total = sum(processed)
        elapsed = max(elapsed, 1e-9)
        final_results = [
            worker_results.get(w) or supervisor.salvaged_results[w]
            for w in range(n)
        ]
        return ClusterResult(
            scheme=config.scheme,
            num_workers=n,
            mode=config.mode.spec,
            messages_total=total,
            elapsed_s=elapsed,
            agg_msgs_per_sec=total / elapsed,
            worker_processed=processed,
            imbalance=loads_imbalance(processed),
            source_loads=list(source_result["loads"]),
            head=dict(source_result["head"]),
            dict_entries=int(source_result["dict_entries"]),
            service_ns=config.service_ns,
            worker_results=final_results,
            snapshots=list(monitor.snapshots),
            restarts=supervisor.restarts,
            frames_lost=supervisor.frames_lost,
            messages_lost=supervisor.messages_lost,
            messages_redirected=sum(source_result["redirected_out"]),
            recovery_seconds=supervisor.recovery_seconds,
            lost_per_worker=list(supervisor.lost_per_worker),
            redirected_out=list(source_result["redirected_out"]),
            redirected_in=list(source_result["redirected_in"]),
            degraded_workers=sorted(supervisor.degraded),
            recovery_log=list(supervisor.recovery_log),
            migration=source_result["migration"],
        )
    except ClusterRuntimeError as error:
        # The frames the error was raised through (the supervisor's) hold
        # numpy views over the shared blocks, and a traceback keeps its
        # frames alive: drop it, tear the mesh down, then raise from here.
        failure = error.with_traceback(None)
    finally:
        state.abort()  # idempotent; unblocks anything still waiting
        if monitor is not None:
            monitor.stop()
            monitor.join(timeout=5.0)
        for process in processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        pipe_pairs = [
            *(pair for pool in delta_pipe_pools for pair in pool),
            *result_pipes,
            source_pipe,
            control_pipe,
        ]
        for recv, send in pipe_pairs:
            for end in (recv, send):
                try:
                    end.close()
                except OSError:
                    pass
        for doorbell in doorbells:
            doorbell.close()
        # Every numpy view over the shared blocks must die before the
        # mappings can close — including the ones captured inside the
        # Process argument tuples, the supervisor and the monitor thread.
        processes.clear()
        workers.clear()
        source = None
        monitor = None
        supervisor = None
        rings.clear()  # the supervisor shares this list; empty it for both
        del rings
        state = None
        for shm in [state_shm, *ring_shms]:
            # close() can still refuse while a foreign in-flight exception
            # (an interrupt) pins buffer views; unlink must run regardless,
            # or the segment outlives the run on /dev/shm.
            try:
                shm.close()
            except (BufferError, OSError):
                pass
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass
    raise failure


def validate_against_simulation(
    config: ClusterConfig,
    result: ClusterResult | None = None,
    tolerance: float = 0.2,
) -> dict[str, Any]:
    """Compare a real run against the simulator's prediction.

    The runtime has exactly one router, so a ``num_sources=1`` simulation
    of the same workload, scheme and seed routes the identical stream.
    What must match depends on whether the run recovered from faults:

    * ``routing_match`` — the source's load vector (messages *routed* to
      each slot) equals the simulation bit for bit.  Faults never touch
      routing (redirection happens after the routing decision, and state
      re-adoption is byte-identical), so this holds for every run.
    * ``delivery_exact`` — the delivered counts equal the simulation too.
      Only a fault-free run can satisfy this; a recovered run loses
      in-flight messages and redirects share to survivors.
    * ``conservation_ok`` — per slot, every routed message is accounted
      for exactly once: delivered there, lost in a drained ring
      (itemised), or delivered by a survivor (redirect ledgers balance).
      This is the recovered-run replacement for exact delivery: no
      message is double-delivered and every loss is named.

    ``ok`` rolls up what the run's kind requires; ``within_tolerance``
    bounds the relative imbalance difference (headroom for future
    multi-source runtimes, where the match is statistical).
    """
    from repro.simulation.runner import run_simulation

    if result is None:
        result = run_cluster(config)
    simulated = run_simulation(
        config.build_workload(),
        scheme=config.scheme,
        num_workers=config.num_workers,
        num_sources=1,
        seed=config.seed,
        scheme_options=dict(config.scheme_options),
        mode=config.mode,
    )
    real = result.imbalance
    predicted = simulated.final_imbalance
    scale = max(abs(predicted), 1e-9)
    relative = abs(real - predicted) / scale if predicted else abs(real - predicted)
    within_tolerance = relative <= tolerance

    sim_loads = list(simulated.worker_loads)
    routing_match = result.source_loads == sim_loads
    delivery_exact = result.worker_processed == sim_loads

    n = result.num_workers
    lost = result.lost_per_worker or [0] * n
    out = result.redirected_out or [0] * n
    into = result.redirected_in or [0] * n
    conservation_ok = all(
        result.source_loads[w]
        == result.worker_processed[w] + lost[w] + out[w] - into[w]
        for w in range(n)
    ) and sum(result.worker_processed) + result.messages_lost == sum(
        result.source_loads
    )

    if result.recovered:
        ok = routing_match and conservation_ok
    else:
        ok = routing_match and delivery_exact and conservation_ok and within_tolerance
    return {
        "real_imbalance": real,
        "simulated_imbalance": predicted,
        "relative_difference": relative,
        "within_tolerance": within_tolerance,
        "loads_match": delivery_exact,
        "routing_match": routing_match,
        "delivery_exact": delivery_exact,
        "conservation_ok": conservation_ok,
        "recovered": result.recovered,
        "restarts": result.restarts,
        "messages_lost": result.messages_lost,
        "ok": ok,
        "tolerance": tolerance,
    }
