"""Figure 14 — end-to-end latency of the grouping schemes on the cluster.

Same setup as Figure 13; the reported metrics are the maximum of the
per-worker average latencies and the 50th/95th/99th percentiles across all
messages.  The paper finds KG's latency dominated by the queue of the worker
that owns the hottest key, PKG roughly halving it, and D-C / W-C close to SG
(60% below PKG and 75% below KG at the 99th percentile in the best case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.runner import run_cluster_experiment
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig14"
TITLE = "Cluster latency (max avg, p50, p95, p99) for KG, PKG, D-C, W-C, SG"

SCHEMES = ("KG", "PKG", "D-C", "W-C", "SG")


@dataclass(slots=True)
class Fig14Config:
    """Parameters of the Figure 14 reproduction."""

    skews: Sequence[float] = (1.4, 1.7, 2.0)
    num_keys: int = 10_000
    num_messages: int = 200_000
    num_sources: int = 48
    num_workers: int = 80
    service_time_ms: float = 1.0
    seed: int = 0
    schemes: Sequence[str] = SCHEMES


def run(config: Fig14Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "skews": tuple(config.skews),
            "num_messages": config.num_messages,
            "sources": config.num_sources,
            "workers": config.num_workers,
        },
    )
    for skew in config.skews:
        for scheme in config.schemes:
            workload = ZipfWorkload(
                exponent=float(skew),
                num_keys=config.num_keys,
                num_messages=config.num_messages,
                seed=config.seed,
            )
            cluster = run_cluster_experiment(
                workload,
                scheme=scheme,
                num_sources=config.num_sources,
                num_workers=config.num_workers,
                service_time_ms=config.service_time_ms,
                seed=config.seed,
            )
            row = {"skew": float(skew), "scheme": scheme}
            row.update(cluster.latency.as_row())
            result.rows.append(row)
    result.notes.append(
        "Paper observation: KG's latency is dominated by the hot worker's "
        "queue, PKG roughly halves it, and D-C / W-C are close to SG."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 14",
    claim=(
        "KG's latency is dominated by the hot worker's queue, PKG roughly "
        "halves it, and D-C / W-C are close to SG."
    ),
    run=run,
    config_class=Fig14Config,
    scales={
        "tiny": {
            "skews": (2.0,),
            "num_messages": 8_000,
            "num_sources": 8,
            "num_workers": 16,
        },
        "quick": {"skews": (1.4, 2.0), "num_messages": 40_000},
        "paper": {"num_messages": 2_000_000},
    },
    kind="cluster",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="bars", x="skew", y="p99_ms", series_by=("scheme",)
    ),
)
