"""Result object of a cluster-simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.latency import LatencyStats


@dataclass(slots=True)
class ClusterResult:
    """Throughput and latency of one grouping scheme on the simulated cluster.

    Attributes
    ----------
    scheme:
        Canonical grouping-scheme name.
    num_messages:
        Messages fully processed during the run.
    duration_ms:
        Simulated time elapsed.
    throughput_per_second:
        ``num_messages / duration`` in messages per second — the Figure 13
        metric.
    latency:
        Aggregated latency statistics — the Figure 14 metrics.
    worker_utilization:
        Per-worker busy fraction, useful to see which scheme saturates a
        single worker (KG) versus spreading load (SG, D-C, W-C).  One entry
        per worker, each its busy time over the run's duration.
    imbalance:
        Final load imbalance ``I(m)`` over message counts, for
        cross-checking against the pure simulation results.
    """

    scheme: str
    num_messages: int
    duration_ms: float
    throughput_per_second: float
    latency: LatencyStats
    worker_utilization: list[float] = field(default_factory=list)
    imbalance: float = 0.0

    def summary(self) -> dict[str, object]:
        row: dict[str, object] = {
            "scheme": self.scheme,
            "messages": self.num_messages,
            "duration_ms": round(self.duration_ms, 1),
            "throughput_per_s": round(self.throughput_per_second, 1),
            "imbalance": self.imbalance,
        }
        row.update(self.latency.as_row())
        return row
