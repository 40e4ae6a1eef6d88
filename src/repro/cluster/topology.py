"""Topology and timing parameters of the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ConfigurationError

#: The paper's cluster experiment parameters (Section V-B, Q4).
PAPER_NUM_SOURCES = 48
PAPER_NUM_WORKERS = 80
PAPER_SERVICE_TIME_MS = 1.0

#: Default per-message emission overhead at the sources.  12 ms per message
#: caps the aggregate input rate at 48 / 0.012 = 4000 messages/s, which puts
#: the simulated cluster at the same operating point as the paper's Storm
#: deployment: balanced schemes are input-limited around a few thousand
#: events/s while skew-sensitive schemes (KG, PKG at high skew) hit the
#: 1000 msg/s capacity of individual hot workers first.
DEFAULT_SOURCE_OVERHEAD_MS = 12.0


@dataclass(slots=True)
class ClusterTopology:
    """Parameters of the source → worker topology.

    Attributes
    ----------
    scheme:
        Grouping scheme applied on the partitioned edge.
    num_sources, num_workers:
        Operator parallelism (paper: 48 sources, 80 workers).
    service_time_ms:
        Fixed per-message processing time at the workers (paper: 1 ms).
    source_overhead_ms:
        Time a source needs to emit one message (serialisation, routing);
        models the spout-side cost and bounds the maximum input rate.
    max_pending_per_source:
        In-flight window per source (Storm's ``max.spout.pending``): the
        number of unacked messages a source may have outstanding.  Larger
        windows increase throughput until workers saturate, then only add
        queueing latency.
    seed:
        Base seed for the partitioners.
    scheme_options:
        Extra keyword arguments forwarded to the partitioner constructor.
    """

    scheme: str
    num_sources: int = PAPER_NUM_SOURCES
    num_workers: int = PAPER_NUM_WORKERS
    service_time_ms: float = PAPER_SERVICE_TIME_MS
    source_overhead_ms: float = DEFAULT_SOURCE_OVERHEAD_MS
    max_pending_per_source: int = 100
    seed: int = 0
    scheme_options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_sources < 1:
            raise ConfigurationError(
                f"num_sources must be >= 1, got {self.num_sources}"
            )
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.service_time_ms <= 0.0:
            raise ConfigurationError(
                f"service_time_ms must be positive, got {self.service_time_ms}"
            )
        if self.source_overhead_ms < 0.0:
            raise ConfigurationError(
                f"source_overhead_ms must be >= 0, got {self.source_overhead_ms}"
            )
        if self.max_pending_per_source < 1:
            raise ConfigurationError(
                "max_pending_per_source must be >= 1, got "
                f"{self.max_pending_per_source}"
            )

    @property
    def ideal_throughput_per_second(self) -> float:
        """Aggregate worker capacity in messages per second.

        With perfectly balanced load the cluster completes at most
        ``n / service_time`` messages per second (ignoring source limits).
        """
        return self.num_workers * (1000.0 / self.service_time_ms)

    @property
    def source_limited_throughput_per_second(self) -> float:
        """Maximum input rate the sources can generate."""
        if self.source_overhead_ms == 0.0:
            return float("inf")
        return self.num_sources * (1000.0 / self.source_overhead_ms)
