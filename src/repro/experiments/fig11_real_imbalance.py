"""Figure 11 — imbalance on the real-world workloads vs. number of workers.

PKG, D-C and W-C on the Wikipedia-like, Twitter-like and Cashtag-like
workloads, with the deployment size swept over {5, 10, 20, 50, 100}.  The
paper finds all schemes fine at small scale, PKG degrading from ~20 workers
upward, and the drifting CT workload being the hardest for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.base import Workload
from repro.workloads.catalog import load_dataset

EXPERIMENT_ID = "fig11"
TITLE = "Imbalance on WP/TW/CT-like workloads vs. number of workers"

SCHEMES = ("PKG", "D-C", "W-C")


@dataclass(slots=True)
class Fig11Config:
    """Parameters of the Figure 11 reproduction."""

    worker_counts: Sequence[int] = (5, 10, 20, 50, 100)
    num_messages: int = 1_000_000
    num_sources: int = 5
    seed: int = 0
    datasets: Sequence[str] = ("WP", "TW", "CT")
    mode: str | None = None


def real_workload(symbol: str, num_messages: int, seed: int) -> Workload:
    """``symbol``'s catalog stand-in; CT's stops at its trace's 690k messages."""
    if symbol == "CT":
        num_messages = min(num_messages, 690_000)
    return load_dataset(symbol, num_messages=num_messages, seed=seed)


def run(config: Fig11Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "num_messages": config.num_messages,
            "workers": tuple(config.worker_counts),
            "datasets": tuple(config.datasets),
        },
    )
    for symbol in config.datasets:
        for scheme in SCHEMES:
            for num_workers in config.worker_counts:
                simulation = run_simulation(
                    real_workload(symbol, config.num_messages, config.seed),
                    scheme=scheme,
                    num_workers=num_workers,
                    num_sources=config.num_sources,
                    seed=config.seed,
                    mode=execution_mode_of(config),
                )
                result.rows.append(
                    {
                        "dataset": symbol,
                        "scheme": scheme,
                        "workers": num_workers,
                        "imbalance": simulation.final_imbalance,
                    }
                )
    result.notes.append(
        "Paper observation: at 20+ workers PKG's imbalance exceeds D-C and "
        "W-C by orders of magnitude; the drifting CT workload is the hardest "
        "for every scheme."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 11",
    claim=(
        "At 20+ workers PKG's imbalance exceeds D-C and W-C by orders of "
        "magnitude on the real workloads; the drifting CT stream is the "
        "hardest for every scheme."
    ),
    run=run,
    config_class=Fig11Config,
    scales={
        "tiny": {"worker_counts": (10,), "num_messages": 20_000, "datasets": ("WP",)},
        "quick": {
            "worker_counts": (10, 50),
            "num_messages": 100_000,
            "datasets": ("WP", "CT"),
        },
        "paper": {"num_messages": 2_000_000},
    },
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="series",
        x="workers",
        y="imbalance",
        series_by=("dataset", "scheme"),
        log_y=True,
    ),
)
