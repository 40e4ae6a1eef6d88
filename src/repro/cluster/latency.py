"""Latency accounting for the cluster simulation.

Figure 14 of the paper reports, per grouping scheme, the *maximum of the
per-worker average latencies* together with the 50th, 95th and 99th
percentiles.  :class:`LatencyStats` collects per-worker latency samples and
computes those aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError


class LatencyCollector:
    """Collects end-to-end latency samples, bucketed per worker."""

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self._samples: list[list[float]] = [[] for _ in range(num_workers)]
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def record(self, worker: int, latency_ms: float) -> None:
        if not 0 <= worker < len(self._samples):
            raise SimulationError(
                f"worker {worker} outside [0, {len(self._samples)})"
            )
        if latency_ms < 0.0:
            raise SimulationError(f"latency must be >= 0, got {latency_ms}")
        self._samples[worker].append(latency_ms)
        self._count += 1

    def stats(self) -> "LatencyStats":
        """Aggregate the collected samples into the Figure 14 metrics."""
        buckets = self._samples
        per_worker_avg = [
            float(np.mean(samples)) for samples in buckets if samples
        ]
        pooled = np.concatenate(
            [np.asarray(samples) for samples in buckets if samples]
        ) if any(buckets) else np.asarray([0.0])
        return LatencyStats(
            max_average=max(per_worker_avg) if per_worker_avg else 0.0,
            mean=float(pooled.mean()),
            p50=float(np.percentile(pooled, 50)),
            p95=float(np.percentile(pooled, 95)),
            p99=float(np.percentile(pooled, 99)),
            samples=self._count,
        )


@dataclass(frozen=True, slots=True)
class LatencyStats:
    """Aggregated latency metrics (all in milliseconds)."""

    #: Maximum over workers of the per-worker average latency ("max avg" in
    #: Figure 14 — the quantity dominated by the hottest worker's queue).
    max_average: float
    #: Mean latency over all messages.
    mean: float
    p50: float
    p95: float
    p99: float
    samples: int

    def as_row(self) -> dict[str, float | int]:
        return {
            "max_avg_ms": round(self.max_average, 3),
            "mean_ms": round(self.mean, 3),
            "p50_ms": round(self.p50, 3),
            "p95_ms": round(self.p95, 3),
            "p99_ms": round(self.p99, 3),
            "samples": self.samples,
        }
