"""Interleaved, calibrated, checked trials and the end-to-end metrics.

A run is ``rounds`` round-robin passes over the four schemes, so a slow
machine phase lands on every scheme alike, and every trial is bracketed by
the calibration kernel (see ``calib.py``).  A metric is the median over a
scheme's trials; trial counts and message counts are fixed per workload, so
a run is the same program on every commit.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import calib
from jobs import RUN_SECONDS, SCHEMES, Job, Outcome, balance, check_trial

BENCH_DIR = Path(__file__).resolve().parent

#: Fresh-interpreter set-ups timed per run (their median is ``setup_s``).
SETUP_PROBES = 5

#: A run stops adding rounds once its trials have taken this many times the
#: nominal measuring time: only a machine phase well over 1.5x slow reaches
#: it, and it keeps the driver's total budget safe when one does.
OVERRUN = 1.6


@dataclass(frozen=True, slots=True)
class Sample:
    raw_rate: float  # messages per wall second
    calib_s: float  # kernel wall time around the trial


@dataclass(frozen=True, slots=True)
class Metric:
    """A measured value; its unit is BENCHMARK.json's, by name."""

    value: float
    note: str = ""


@contextmanager
def one_core(job: Job):
    """Keep a calibrated job, and every child it starts, on one core.

    The calibration kernel only speaks for the core it ran on.  The
    sandbox's *parallel* capacity changes by up to 2x between phases (where
    the hypervisor places the second vCPU) without its single-thread speed
    moving, so a multi-process trial spread over two cores cannot be
    calibrated by a single-thread kernel — and nothing else here needs the
    second core.  Calibrated jobs therefore time-share one core with their
    kernel; ``cluster_io``, whose workers sleep, is neither calibrated nor
    pinned.
    """
    try:
        allowed = os.sched_getaffinity(0)
        if job.calibrated:
            os.sched_setaffinity(0, {max(allowed)})
    except (AttributeError, OSError):
        allowed = None  # no affinity control here: run unpinned, only noisier
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; the quartiles collapse for fewer than 2 samples."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def scaled_rounds(nominal: int, seconds: float) -> int:
    return max(2, round(nominal * seconds / RUN_SECONDS))


class Trials:
    """Runs and checks the trials of one job, keeping what passed."""

    def __init__(self, job: Job, seed: int) -> None:
        self.job = job
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[Sample]] = {scheme: [] for scheme in SCHEMES}
        self.oracles = {}

    def prepare(self) -> None:
        """Oracles, then the warm-up trials that let lazy set-up finish."""
        for scheme in SCHEMES:
            self.oracles[scheme] = self.job.oracle(scheme, self.seed)
        for scheme in SCHEMES:
            reason = self.job.warm_up(scheme, self.seed)
            if reason:
                self.failures.append(f"{scheme}: {reason}")

    def run(self, scheme: str, trial=None) -> tuple[Outcome, Sample] | None:
        """One bracketed trial; ``None`` (and a recorded failure) if it is wrong.

        ``trial`` replaces the plain ``job.trial`` call (the traced run wraps
        it in a span).
        """
        job = self.job
        gc.collect()  # every trial starts from the same collector state
        outcome, calib_s = calib.bracket(trial or (lambda: job.trial(scheme, self.seed)))
        self.attempted += 1
        oracle = self.oracles[scheme]
        reason = check_trial(outcome, list(oracle.worker_loads), job.messages)
        if reason is None and outcome.replication not in (None, oracle.replication_factor):
            reason = "replication factor differs from the oracle"
        if reason:
            self.failures.append(f"{scheme} trial {self.attempted}: {reason}")
            return None
        sample = Sample(job.messages / outcome.seconds, calib_s)
        self.samples[scheme].append(sample)
        return outcome, sample

    def rate(self, sample: Sample) -> float:
        if self.job.calibrated:
            return sample.raw_rate * calib.speed(sample.calib_s)
        return sample.raw_rate

    def rate_metric(self, scheme: str) -> Metric | None:
        samples = self.samples[scheme]
        if not samples:
            return None
        median, q1, q3 = summary([self.rate(sample) for sample in samples])
        raw = statistics.median(sample.raw_rate for sample in samples)
        kind = "calibrated" if self.job.calibrated else "raw"
        return Metric(
            median,
            f"{kind}; q1 {q1:.0f} q3 {q3:.0f} n {len(samples)}; raw median {raw:.0f}",
        )


def probe_setup(job: Job, seed: int) -> float:
    """One cold set-up in a fresh interpreter, in nominal-machine seconds."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"),
         "--workload", job.name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["setup_s"] / calib.speed(report["calib_s"])


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus its largest child, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def end_to_end(job: Job, seed: int, seconds: float) -> tuple[dict[str, Metric], Trials]:
    """The untraced run: every end-to-end metric of one workload."""
    trials = Trials(job, seed)
    trials.prepare()
    rounds = scaled_rounds(job.rounds, seconds)
    probe_at = {probe * rounds // SETUP_PROBES for probe in range(SETUP_PROBES)}
    setups: list[float] = []
    started = time.perf_counter()
    for index in range(rounds):
        if index in probe_at:
            setups.append(probe_setup(job, seed))
        for scheme in SCHEMES:
            trials.run(scheme)
        done = index + 1
        if time.perf_counter() - started > OVERRUN * seconds and done * 3 >= rounds:
            break
    # Probes the early stop skipped still run: setup_s always has its samples.
    setups.extend(probe_setup(job, seed) for _ in range(SETUP_PROBES - len(setups)))

    metrics: dict[str, Metric] = {}
    for scheme in SCHEMES:
        rate = trials.rate_metric(scheme)
        if rate is None:
            continue
        metrics[f"msgs_per_s.{scheme}"] = rate
        metrics[f"balance.{scheme}"] = Metric(
            balance(list(trials.oracles[scheme].worker_loads)),
            "mean/max worker load; every trial's loads equal the oracle's",
        )
    for scheme in ("D-C", "W-C"):
        if trials.samples[scheme]:
            metrics[f"replication.{scheme}"] = Metric(
                trials.oracles[scheme].replication_factor,
                "single-source twin" if job.on_cluster else "equal in every trial",
            )
    median, q1, q3 = summary(setups)
    metrics["setup_s"] = Metric(
        median, f"calibrated; q1 {q1:.4f} q3 {q3:.4f} n {len(setups)} fresh interpreters"
    )
    metrics["peak_rss_mb"] = Metric(
        peak_rss_mb(job.on_cluster),
        "self + largest child" if job.on_cluster else "self",
    )
    kernel_ms = 1e3 * statistics.median(
        sample.calib_s for samples in trials.samples.values() for sample in samples
    )
    print(f"# {job.name}: {done} of {rounds} rounds, {job.messages} messages per trial, "
          f"seed {seed}, calibration kernel median {kernel_ms:.3f} ms")
    return metrics, trials
