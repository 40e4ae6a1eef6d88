"""Coordinator of the multi-process cluster runtime.

``run_cluster`` owns every resource of one run: one anonymous shared
mapping that holds the state block and one ring buffer per worker, the
delta/result pipes, the start and finish lines, and the source and worker
processes.
All of them are made before the fork (the ``fork`` start method is
required), so every process inherits the mapping and its pipe ends; nothing
is pickled, and nothing is named, so nothing outlives a crashed run.

The coordinator's result loop is the whole control plane.  It blocks in one
``multiprocessing.connection.wait`` over the result pipes still owed, the
sentinel of every watched process and a timeout to the next snapshot tick;
the tick snapshots the shared state and checks heartbeats.  No thread and
no shorter poll: a report or a death wakes the loop at once.  A child that
reported waits at the finish line, so no process exits inside the timed
window; the coordinator opens the line once it holds every result.  A
*supervisor*, driven from the same loop, turns detected failures into
recoveries.

Failure handling is supervised, not merely detected.  When a worker dies
(its sentinel), wedges (heartbeat age on a tick) or reports a protocol
error (its result pipe), the supervisor:

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

import mmap
import multiprocessing
import time
from dataclasses import dataclass, field
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
    StartGate,
    state_words,
)
from repro.runtime.worker import WorkerResult, worker_main
from repro.types import loads_imbalance

#: Worker id the coordinator's bookkeeping uses for the source process.
SOURCE_ID = -1


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
        first heartbeat before a snapshot tick declares it hung.  Heartbeat
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

    The run's two ends, per worker slot, are reported, never pinned:
    ``first_frame_s`` is how long after the release the slot's reporting
    incarnation popped its first data frame (0 if it popped none), and
    ``last_overrun_s`` how long its last sleep overran.
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
    first_frame_s: list[float] = field(default_factory=list)
    last_overrun_s: list[float] = field(default_factory=list)
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
            "first_frame_ms": round(max(self.first_frame_s, default=0.0) * 1e3, 3),
            "last_overrun_ms": round(max(self.last_overrun_s, default=0.0) * 1e3, 3),
        }
        if self.service_ns > 0:
            # The share of the service-time ideal the run reached: n workers
            # blocking service_ns per message serve n / service_ns msg/s.
            summary["capacity_efficiency"] = round(
                self.agg_msgs_per_sec * self.service_ns / (self.num_workers * 1e9), 4
            )
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


def _stall_reason(
    state: SharedClusterState,
    config: ClusterConfig,
    worker_id: int,
    watched_since: float,
    now: float,
) -> str | None:
    """Why a live worker counts as hung at tick time ``now``, or ``None``.

    A fenced slot is mid-recovery: the supervisor owns it.  Heartbeat *age*
    applies after the first beat; before it (``heartbeat_age_s == inf``: a
    slow fork, or a fresh respawn) the startup grace, counted from
    ``watched_since``, governs instead of the heartbeat timeout.
    """
    if state.worker_fenced(worker_id):
        return None
    age = state.heartbeat_age_s(worker_id)
    if age == float("inf"):
        if now - watched_since > config.startup_grace_s:
            return (
                f"worker {worker_id} never heartbeat within the "
                f"{config.startup_grace_s}s startup grace"
            )
        return None
    if age > config.heartbeat_timeout_s:
        return (
            f"worker {worker_id} stopped heartbeating "
            f"({age:.1f}s > {config.heartbeat_timeout_s}s timeout)"
        )
    return None


def _death_reason(pid: int, process) -> str:
    """Why a watched process whose sentinel fired counts as failed.

    The loop reads result pipes before sentinels, and a child writes its
    result before it exits, so a process still watched here never reported:
    a clean exit code is no excuse.
    """
    process.join(timeout=1.0)  # the sentinel fired: this only collects the code
    who = "source" if pid == SOURCE_ID else f"worker {pid}"
    return f"{who} died (exit code {process.exitcode}) before finishing its stream"


def _await_ready(pipes: dict, processes, timeout_s: float) -> str | None:
    """Block until each pipe of ``pipes`` (``{conn: who}``) sent ``("ready",)``.

    Returns ``None``, or why the barrier failed: an ``error`` report, the
    death of one of ``processes`` (its sentinel) or the timeout.
    """
    deadline = time.monotonic() + timeout_s
    pipes = dict(pipes)
    sentinels = [process.sentinel for process in processes]
    while pipes:
        ready = wait_readable(
            [*pipes, *sentinels], timeout=max(0.0, deadline - time.monotonic())
        )
        if not ready:
            return f"cluster startup timed out after {timeout_s}s"
        for conn in ready:
            who = pipes.pop(conn, None)
            if who is None:
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return f"{who} died during startup"
            if message[0] == "error":
                return f"{who} failed during startup: {message[2]}"
        if any(sentinel in ready for sentinel in sentinels):
            return "a process died during startup"
    return None


class _Supervisor:
    """Turns one detected worker failure into one recovery action.

    Owned and driven by the coordinator's result loop (single-threaded),
    which shares its ``watch`` table with it: a slot leaves the table the
    moment its failure is handled and its replacement joins it.  Per
    failure: fence -> reap -> drain in-flight -> respawn | degrade |
    salvage.
    """

    def __init__(
        self,
        config: ClusterConfig,
        ctx,
        state: SharedClusterState,
        rings: list[SpscRing],
        ring_blocks,
        delta_pipe_pools,
        result_pipes,
        processes,
        watch: dict,
        control_send,
        fence_bell: Doorbell,
        finish: StartGate,
    ) -> None:
        self._config = config
        self._ctx = ctx
        self._state = state
        self._rings = rings
        self._ring_blocks = ring_blocks
        self._delta_pipe_pools = delta_pipe_pools
        self._result_pipes = result_pipes
        self._processes = processes
        self._watch = watch
        self._control_send = control_send
        self._fence_bell = fence_bell
        self._finish = finish
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

    def _await_fence_ack(self, worker_id: int) -> bool:
        """Block until the source promises it is off the fenced ring.

        Draining or re-initialising the ring while the source could still
        be mid-push would corrupt it.  The source acks on every batch, in
        every blocked push and on every pass of its end-of-stream linger,
        ringing ``fence_bell`` each time; its pushes are bounded by
        ``push_timeout_s``, so the wait on the bell and the source's
        sentinel needs no timeout.  ``False``: the source left the rings
        without the ack, having closed the ring and lingered for no
        replacement — it exited, or it is about to report and park at the
        finish line, which it says in shared state and on the bell.
        """
        source = self._processes[SOURCE_ID].sentinel
        while not self._state.fence_acknowledged(worker_id):
            if self._state.source_finished() or source in wait_readable(
                [self._fence_bell, source]
            ):
                return self._state.fence_acknowledged(worker_id)
            self._fence_bell.wait(0)  # answer the ring; the word says for whom
        return True

    def _source_streaming(self) -> bool:
        """Whether the source may still touch a ring: alive, not off them."""
        return (
            self._processes[SOURCE_ID].is_alive()
            and not self._state.source_finished()
        )

    def _drain(self, worker_id: int) -> None:
        """Count the slot's loss: frames left in its ring and the one it claimed."""
        drain = self._rings[worker_id].drain_inflight()
        held = self._state.inflight_messages(worker_id)
        self.frames_lost += drain.frames + (1 if held else 0)
        self.messages_lost += drain.messages + held
        self.lost_per_worker[worker_id] += drain.messages + held

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
            self._ring_blocks[worker_id],
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
            kwargs={"finish": self._finish},
            daemon=True,
        )
        process.start()
        self._processes[worker_id] = process
        if _await_ready({recv: f"worker {worker_id}"}, [process], config.startup_timeout_s):
            self._reap(process)
            return False
        return True

    # ------------------------------------------------------------------ #
    def handle(self, worker_id: int, process, reason: str) -> None:
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
        self._watch.pop(worker_id, None)
        self._reap(process)
        # A source that leaves the rings without taking the fence has
        # closed this ring and lingers for no replacement: the stream ended
        # for the slot after all, and a respawn would wait for its EOF
        # forever.
        stream_ended = source_was_done or not (
            self._await_fence_ack(worker_id) or self._source_streaming()
        )
        self._drain(worker_id)

        if stream_ended:
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
                self._watch[worker_id] = (
                    self._processes[worker_id],
                    time.monotonic(),
                )
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
            "(POSIX-only): the shared mapping is inherited, not pickled"
        )
    # A module a forked child imports is paid for inside its timed stream, so
    # what the source's first batch runs is imported here (numpy.random is
    # lazy).  Not at module level: every importer would pay, and sim_hot's
    # trials ran slower with numpy.random loaded by `import repro.runtime`.
    import numpy.random  # noqa: F401
    import repro.workloads.zipf_stream  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    n = config.num_workers

    # One anonymous shared mapping: the state block, then one ring per
    # worker, each on its own pages.  Inherited by every fork (respawns
    # fork from here too); unmapped when the last view of it dies.
    def pages(words: int) -> int:
        return -(-words * 8 // mmap.PAGESIZE) * mmap.PAGESIZE

    state_bytes = pages(state_words(n, config.head_capacity))
    ring_bytes = pages(ring_words(config.ring_capacity_words))
    mapping = memoryview(mmap.mmap(-1, state_bytes + n * ring_bytes))
    state = SharedClusterState(
        mapping[:state_bytes], n, config.head_capacity, create=True
    )
    ring_blocks = [
        mapping[state_bytes + w * ring_bytes : state_bytes + (w + 1) * ring_bytes]
        for w in range(n)
    ]
    # One doorbell per ring, made before any fork so the source (who rings)
    # and every incarnation of the worker (who waits) inherit both ends.
    doorbells = [Doorbell() for _ in range(n)]
    rings = [
        SpscRing(block, config.ring_capacity_words, create=True, doorbell=doorbell)
        for block, doorbell in zip(ring_blocks, doorbells)
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
    # Rung by the source after each fence it takes: the supervisor's wait
    # for that acknowledgement blocks on it.
    fence_bell = Doorbell()
    start = StartGate()
    # Every child waits here once it reported: the coordinator opens the
    # line when it holds every result, so no exit steals a core from a
    # peer still serving its last frames.
    finish = StartGate()
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
                start,
                finish,
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
            start,
            fence_bell,
            finish,
        ),
        daemon=True,
    )

    processes = {worker_id: process for worker_id, process in enumerate(workers)}
    processes[SOURCE_ID] = source
    try:
        for process in workers:
            process.start()
        source.start()

        # Startup barrier: every child reports ready on its result pipe;
        # only then does the clock start — process startup never pollutes
        # the throughput measurement.
        owed_ready = {result_pipes[w][0]: f"worker {w}" for w in range(n)}
        owed_ready[source_pipe[0]] = "source"
        failure = _await_ready(owed_ready, processes.values(), config.startup_timeout_s)
        if failure is not None:
            raise ClusterRuntimeError(failure)

        started_at = time.perf_counter()
        #: pid -> (process, watched since): the incarnations whose death or
        #: hang is still news.  A process leaves on its result or failure.
        watch = {pid: (process, time.monotonic()) for pid, process in processes.items()}
        supervisor = _Supervisor(
            config,
            ctx,
            state,
            rings,
            ring_blocks,
            delta_pipe_pools,
            result_pipes,
            processes,
            watch,
            control_pipe[1],
            fence_bell,
            finish,
        )
        released_ns = time.monotonic_ns()
        start.release()

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
        snapshots: list[ClusterSnapshot] = []
        elapsed = 0.0
        #: Result pipes that raised on recv().  A pipe at EOF is always
        #: readable, so it must leave the wait set or the loop would spin
        #: until the sentinel it belongs to is handled.
        dead_pipes: set = set()
        interval = config.snapshot_interval_s
        next_tick = time.monotonic() + interval
        while True:
            finished = set(worker_results) | set(supervisor.salvaged_results)
            if len(finished) >= n and source_result is not None:
                break
            owed = {
                result_pipes[worker_id][0]: worker_id
                for worker_id in range(n)
                if worker_id not in finished
            }
            if source_result is None:
                owed[source_pipe[0]] = SOURCE_ID
            sentinels = {
                process.sentinel: (pid, process)
                for pid, (process, _) in watch.items()
            }
            ready = wait_readable(
                [*(conn for conn in owed if conn not in dead_pipes), *sentinels],
                timeout=max(0.0, next_tick - time.monotonic()),
            )
            # Pipes first: a child writes its report before it exits, so a
            # process that reported is finished (or failed loudly), never
            # merely dead.
            for conn in ready:
                pid = owed.get(conn)
                if pid is None:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    dead_pipes.add(conn)  # died with its process; the sentinel reports it
                    continue
                if message[0] == "error":
                    if pid == SOURCE_ID:
                        fail_run(SOURCE_ID, f"source failed: {message[2]}")
                    supervisor.handle(
                        pid, processes[pid], f"worker {pid} failed: {message[2]}"
                    )
                    continue
                if pid == SOURCE_ID:
                    source_result = message[1]
                else:
                    worker_results[pid] = message[1]
                    supervisor.salvaged_results.pop(pid, None)
                watch.pop(pid, None)
                elapsed = time.perf_counter() - started_at
            for conn in ready:
                pid, process = sentinels.get(conn, (None, None))
                if process is None or watch.get(pid, (None,))[0] is not process:
                    continue  # not a sentinel, or its process reported or was replaced
                del watch[pid]
                reason = _death_reason(pid, process)
                if pid == SOURCE_ID:
                    fail_run(SOURCE_ID, reason)
                supervisor.handle(pid, process, reason)
            if time.monotonic() >= next_tick:
                snapshots.append(state.snapshot(time.perf_counter() - started_at))
                now = time.monotonic()
                for pid, (process, since) in list(watch.items()):
                    if pid == SOURCE_ID or watch.get(pid, (None,))[0] is not process:
                        continue
                    reason = _stall_reason(state, config, pid, since, now)
                    if reason is not None:
                        supervisor.handle(pid, process, reason)
                next_tick = time.monotonic() + interval

        finish.release()  # every result is in: the parked children exit
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
            snapshots=snapshots,
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
            first_frame_s=[
                (r.first_frame_ns - released_ns) / 1e9 if r.first_frame_ns else 0.0
                for r in final_results
            ],
            last_overrun_s=[r.last_overrun_ns / 1e9 for r in final_results],
        )
    finally:
        state.abort()  # idempotent; unblocks anything still waiting
        start.close()  # releases the source if it is still at the start line
        finish.close()  # and every child parked at the finish
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
        for doorbell in (*doorbells, fence_bell):
            doorbell.close()


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
