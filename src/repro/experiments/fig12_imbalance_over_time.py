"""Figure 12 — load imbalance over time on the real-world workloads.

The same schemes as Figure 11, but instead of the final imbalance the
experiment records ``I(t)`` at regular intervals ("hours" of the stream) so
the effect of concept drift — most visible on the Cashtag-like workload —
can be observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.experiments.fig11_real_imbalance import real_workload
from repro.simulation.runner import run_simulation

EXPERIMENT_ID = "fig12"
TITLE = "Imbalance over time on WP/TW/CT-like workloads"

SCHEMES = ("PKG", "D-C", "W-C")


@dataclass(slots=True)
class Fig12Config:
    """Parameters of the Figure 12 reproduction."""

    worker_counts: Sequence[int] = (5, 10, 20, 50, 100)
    num_messages: int = 1_000_000
    num_sources: int = 5
    seed: int = 0
    datasets: Sequence[str] = ("TW", "WP", "CT")
    #: Number of snapshots ("hours") taken along the stream.
    num_snapshots: int = 40
    mode: str | None = None


def run(config: Fig12Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "num_messages": config.num_messages,
            "workers": tuple(config.worker_counts),
            "datasets": tuple(config.datasets),
            "snapshots": config.num_snapshots,
        },
    )
    interval = max(1, config.num_messages // config.num_snapshots)
    for symbol in config.datasets:
        for scheme in SCHEMES:
            for num_workers in config.worker_counts:
                simulation = run_simulation(
                    real_workload(symbol, config.num_messages, config.seed),
                    scheme=scheme,
                    num_workers=num_workers,
                    num_sources=config.num_sources,
                    seed=config.seed,
                    track_interval=interval,
                    mode=execution_mode_of(config),
                )
                series = simulation.time_series
                if series is None:
                    continue
                for snapshot, (messages, imbalance) in enumerate(series.as_rows()):
                    result.rows.append(
                        {
                            "dataset": symbol,
                            "scheme": scheme,
                            "workers": num_workers,
                            "snapshot": snapshot,
                            "messages": messages,
                            "imbalance": imbalance,
                        }
                    )
    result.notes.append(
        "Paper observation: imbalance stays roughly stable over time; the "
        "drifting CT workload is noisier but the relative ordering of the "
        "schemes is unchanged."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 12",
    claim=(
        "Imbalance stays roughly stable over time; the drifting CT workload "
        "is noisier but the relative ordering of the schemes is unchanged."
    ),
    run=run,
    config_class=Fig12Config,
    scales={
        "tiny": {
            "worker_counts": (10,),
            "num_messages": 20_000,
            "datasets": ("CT",),
            "num_snapshots": 5,
        },
        "quick": {
            "worker_counts": (10, 100),
            "num_messages": 100_000,
            "datasets": ("CT",),
            "num_snapshots": 10,
        },
        "paper": {"num_messages": 2_000_000, "num_snapshots": 80},
    },
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="series",
        x="messages",
        y="imbalance",
        series_by=("dataset", "scheme", "workers"),
        log_y=True,
    ),
)
