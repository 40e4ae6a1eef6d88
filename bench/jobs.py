"""The five benchmark workloads, their trials, their oracles and the gate.

A *job* is one workload: a seeded stream, a worker count and the substrate
that runs it — the partitioning simulator (``sim_*``) or the multi-process
runtime (``cluster_*``).  One *trial* pushes the whole stream through the
whole stack once for one scheme.  Every trial is checked against an oracle
computed from the same stream by the slowest, simplest path the repo has.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
# The benchmark runs from a bare checkout with no PYTHONPATH.
sys.path.insert(0, str(ROOT / "src"))

from repro.execution import ExecutionMode  # noqa: E402
from repro.runtime import ClusterConfig, run_cluster, validate_against_simulation  # noqa: E402
from repro.simulation import run_simulation  # noqa: E402
from repro.workloads.synthetic import WikipediaLikeWorkload  # noqa: E402
from repro.workloads.zipf_stream import ZipfWorkload  # noqa: E402

SCHEMES = ("KG", "PKG", "D-C", "W-C")

#: How long one run measures at the nominal trial counts (``run_seconds`` in
#: BENCHMARK.json); ``--seconds`` scales the round counts relative to it.
RUN_SECONDS = 12

#: Rounds of the traced run at ``RUN_SECONDS``.
TRACE_ROUNDS = 6


@dataclass(slots=True)
class Outcome:
    """What one trial produced: the timed interval and the routed loads."""

    seconds: float
    messages: int
    loads: list[int]
    #: Wall time of the whole call (on the cluster: with spawn and teardown).
    wall: float
    #: Mean workers per key; the runtime does not measure it (``None``).
    replication: float | None = None
    #: Cluster only: no restart, no lost message, delivered == routed.
    clean: bool = True
    #: Cluster only: the ``(config, result)`` pair of the run.
    cluster: tuple[Any, Any] | None = None


@dataclass(frozen=True, slots=True)
class Job:
    name: str
    why: str
    rounds: int
    messages: int
    num_workers: int
    stream: Callable[[int, int], Any] = field(repr=False)
    mode: str = "columnar:4096"
    #: Routers the stream is dealt over round-robin: the paper's five on the
    #: simulator, the runtime's single source process on the cluster.
    num_sources: int = 5
    #: ``None`` runs on the simulator; a number runs on the process mesh
    #: with that modelled per-message service time.
    service_ns: int | None = None

    @property
    def on_cluster(self) -> bool:
        return self.service_ns is not None

    @property
    def calibrated(self) -> bool:
        """Whether rates are scaled by the calibration kernel.

        A job whose timed interval is ``time.sleep`` does not speed up with
        the machine; calibrating it would only add the kernel's noise.
        """
        return not self.service_ns

    @property
    def batch_size(self) -> int:
        return ExecutionMode.parse(self.mode).batch_size

    @property
    def columnar(self) -> bool:
        """Whether chunks are interned id arrays (else lists of keys)."""
        return ExecutionMode.parse(self.mode).is_columnar

    def batches(self, seed: int):
        """The stream as the substrate reads it: one chunk per routing step."""
        stream = self.stream(seed, self.messages)
        chunk = self.batch_size * self.num_sources
        if self.columnar:
            return stream.iter_batches_columnar(chunk)
        return stream.iter_batches(chunk)

    def twin(self) -> "Job":
        """The same stream on the other substrate (used by the traced run).

        A cluster job's twin is the single-source simulation the runtime
        must match — the single-process baseline of the same job.  A
        simulated job's twin ships its stream through a two-worker mesh
        with no service time: the sandbox has two cores, and 50 processes
        would measure the scheduler, so it prices the transport for this
        key space rather than reproducing the job's routing.
        """
        if self.on_cluster:
            return replace(self, name=f"{self.name}/sim", service_ns=None)
        return replace(
            self, name=f"{self.name}/mesh", num_workers=2, num_sources=1,
            mode="columnar:1024", service_ns=0,
        )

    def cluster_config(self, scheme: str, seed: int, messages: int) -> ClusterConfig:
        # The hash seed stays 0 (it is configuration); only the stream is
        # seeded, so ``--seed`` resamples messages, not key placement.
        return ClusterConfig(
            scheme=scheme,
            num_workers=self.num_workers,
            num_messages=messages,
            service_ns=self.service_ns or 0,
            mode=self.mode,
            workload_factory=lambda: self.stream(seed, messages),
        )

    def trial(self, scheme: str, seed: int, messages: int | None = None) -> Outcome:
        """Push the stream through the whole stack once."""
        messages = self.messages if messages is None else messages
        if self.on_cluster:
            return cluster_trial(self.cluster_config(scheme, seed, messages))
        workload = self.stream(seed, messages)
        start = time.perf_counter()
        result = run_simulation(
            workload, scheme, self.num_workers, num_sources=self.num_sources, mode=self.mode
        )
        seconds = time.perf_counter() - start
        return Outcome(
            seconds=seconds,
            messages=result.num_messages,
            loads=list(result.worker_loads),
            wall=seconds,
            replication=result.replication_factor,
        )

    def oracle(self, scheme: str, seed: int):
        """The reference ``SimulationResult`` every trial must reproduce.

        Simulated jobs are checked against the one-message-at-a-time
        ``scalar`` path; cluster jobs against the single-source simulation
        of the same job, which the runtime promises to match bit for bit
        (the run ``validate_against_simulation`` makes).
        """
        return run_simulation(
            self.stream(seed, self.messages),
            scheme,
            self.num_workers,
            num_sources=self.num_sources,
            mode=self.mode if self.on_cluster else "scalar",
        )

    def warm_up(self, scheme: str, seed: int) -> str | None:
        """One untimed trial at 1/10 length; a failure reason or ``None``.

        On the cluster it is also where the runtime's own validator runs:
        cheap at this length, and the full-length trials are then held to
        the same simulation through :func:`check_trial`.
        """
        messages = self.messages // 10
        outcome = self.trial(scheme, seed, messages)
        if outcome.messages != messages:
            return f"warm-up routed {outcome.messages} of {messages} messages"
        if outcome.cluster is not None:
            report = validate_against_simulation(*outcome.cluster)
            if not (report["loads_match"] and report["ok"]):
                return f"warm-up failed validate_against_simulation: {report}"
        return None


def cluster_trial(config: ClusterConfig) -> Outcome:
    start = time.perf_counter()
    result = run_cluster(config)
    wall = time.perf_counter() - start
    return Outcome(
        seconds=result.elapsed_s,
        messages=result.messages_total,
        loads=list(result.worker_processed),
        wall=wall,
        clean=(
            result.restarts == 0
            and result.messages_lost == 0
            and list(result.source_loads) == list(result.worker_processed)
        ),
        cluster=(config, result),
    )


def check_trial(outcome: Outcome, expected_loads: list[int], messages: int) -> str | None:
    """The correctness gate: a failure reason, or ``None`` when the trial counts."""
    if outcome.messages != messages or sum(outcome.loads) != messages:
        return f"routed {outcome.messages} (loads sum {sum(outcome.loads)}) of {messages} messages"
    if outcome.loads != expected_loads:
        return "load vector differs from the oracle"
    if not outcome.clean:
        return "cluster run restarted a worker, lost messages or delivered != routed"
    return None


def balance(loads: list[int]) -> float:
    """Mean over max worker load, in (0, 1]; 1 is perfect balance.

    The paper's imbalance is ``λ = (max - mean) / total``, so this is
    ``1 / (1 + λ n)``: the share of the hottest worker's capacity the
    average worker uses, which is what bounds cluster throughput.  Unlike
    λ it is never 0 and does not jump by whole multiples between seeds
    when a scheme is within a message of perfect.
    """
    return sum(loads) / (len(loads) * max(loads))


def _zipf(exponent: float, num_keys: int):
    # A workload object holds only its parameters and its probability table
    # (150 ms to build over 1M keys) and is re-iterable, so trials share it.
    return lru_cache(maxsize=2)(
        lambda seed, messages: ZipfWorkload(exponent, num_keys, messages, seed=seed)
    )


JOBS = {
    job.name: job
    for job in (
        Job(
            name="sim_hot",
            why="Zipf 1.4 over 10k cached keys, p1=0.32: sketch hit path, head "
            "selection and engine accounting do the work; interning does none",
            rounds=30,
            messages=80_000,
            num_workers=50,
            stream=_zipf(1.4, 10_000),
        ),
        Job(
            name="sim_wide",
            why="Zipf 0.8 over 1M keys: dictionary growth, cold candidate tables, "
            "the two-choice tail scan and sketch evictions; bypasses head-path tuning",
            rounds=24,
            messages=42_000,
            num_workers=100,
            stream=_zipf(0.8, 1_000_000),
        ),
        Job(
            name="sim_keys",
            why="Wikipedia-like string keys (p1=9.3%) through the batched route_batch "
            "API and its FIFO interning caches: the path ROADMAP item 2 rewrites",
            rounds=24,
            messages=46_000,
            num_workers=50,
            stream=lambda seed, messages: WikipediaLikeWorkload(num_messages=messages, seed=seed),
            mode="batched:1024",
        ),
        Job(
            name="cluster_transport",
            why="one source and two workers with no service time, sharing the calibrated "
            "core: scatter, SpscRing push/pop, delta sync and worker apply on top of routing",
            rounds=24,
            messages=90_000,
            num_workers=2,
            stream=_zipf(1.4, 10_000),
            mode="columnar:1024",
            num_sources=1,
            service_ns=0,
        ),
        Job(
            name="cluster_io",
            why="eight workers blocking 40us per message at p1=0.61: the hottest "
            "worker sets throughput, so only balance and backpressure move it",
            rounds=10,
            messages=26_000,
            num_workers=8,
            stream=_zipf(2.0, 10_000),
            mode="columnar:1024",
            num_sources=1,
            service_ns=40_000,
        ),
    )
}
