"""Figure 13 — throughput of the grouping schemes on the (simulated) cluster.

The paper deploys KG, PKG, D-C, W-C and SG on an Apache Storm cluster with
48 sources, 80 workers, a 1 ms per-message delay and Zipf streams with
``z in {1.4, 1.7, 2.0}``, ``|K| = 10^4`` and ``m = 2 * 10^6``.  Here the
cluster is the discrete-event simulator of :mod:`repro.cluster`; absolute
events/second differ from the paper's hardware, but the ordering and rough
ratios (D-C/W-C matching SG, ~1.5x over PKG and ~2.3x over KG at high skew)
are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.runner import run_cluster_experiment
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig13"
TITLE = "Cluster throughput for KG, PKG, D-C, W-C and SG"

SCHEMES = ("KG", "PKG", "D-C", "W-C", "SG")


@dataclass(slots=True)
class Fig13Config:
    """Parameters of the Figure 13 reproduction."""

    skews: Sequence[float] = (1.4, 1.7, 2.0)
    num_keys: int = 10_000
    num_messages: int = 200_000
    num_sources: int = 48
    num_workers: int = 80
    service_time_ms: float = 1.0
    seed: int = 0
    schemes: Sequence[str] = SCHEMES


def run(config: Fig13Config) -> ExperimentResult:
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
            result.rows.append(
                {
                    "skew": float(skew),
                    "scheme": scheme,
                    "throughput_per_s": cluster.throughput_per_second,
                    "imbalance": cluster.imbalance,
                }
            )
    result.notes.append(
        "Paper observation: KG is the slowest, PKG sits in between, and "
        "D-C / W-C match SG; the gaps widen as the skew grows."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 13",
    claim=(
        "KG is the slowest, PKG sits in between, and D-C / W-C match SG's "
        "throughput; the gaps widen as the skew grows."
    ),
    run=run,
    config_class=Fig13Config,
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
        kind="bars", x="skew", y="throughput_per_s", series_by=("scheme",)
    ),
)
