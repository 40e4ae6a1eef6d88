"""Figure 8 — per-worker load split into head and tail contributions.

For a Zipf(2.0) stream on 5 workers with ``theta = 1/(8n)``, the figure shows
how PKG, W-C and RR distribute the head and tail of the distribution across
workers: PKG overloads the two workers that own the hottest key, W-C mixes
head and tail to reach the ideal 1/n everywhere, and RR balances the head
perfectly but leaves the tail slightly uneven.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig8"
TITLE = "Per-worker head/tail load split for PKG, W-C and RR"

SCHEMES = ("PKG", "W-C", "RR")


@dataclass(slots=True)
class Fig08Config:
    """Parameters of the Figure 8 reproduction."""

    skew: float = 2.0
    num_workers: int = 5
    num_keys: int = 10_000
    num_messages: int = 1_000_000
    num_sources: int = 5
    seed: int = 0
    mode: str | None = None

    @property
    def theta(self) -> float:
        """The figure uses the lowest threshold of the sweep, 1/(8n)."""
        return 1.0 / (8.0 * self.num_workers)


def run(config: Fig08Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "skew": config.skew,
            "workers": config.num_workers,
            "theta": "1/(8n)",
            "num_messages": config.num_messages,
        },
    )
    for scheme in SCHEMES:
        workload = ZipfWorkload(
            exponent=config.skew,
            num_keys=config.num_keys,
            num_messages=config.num_messages,
            seed=config.seed,
        )
        options = {} if scheme == "PKG" else {"theta": config.theta}
        simulation = run_simulation(
            workload,
            scheme=scheme,
            num_workers=config.num_workers,
            num_sources=config.num_sources,
            seed=config.seed,
            scheme_options=options,
            track_head_tail=True,
            mode=execution_mode_of(config),
        )
        total = max(1, simulation.num_messages)
        head_loads = simulation.head_loads or [0] * config.num_workers
        tail_loads = simulation.tail_loads or simulation.worker_loads
        for worker in range(config.num_workers):
            result.rows.append(
                {
                    "scheme": scheme,
                    "worker": worker + 1,
                    "head_load_pct": 100.0 * head_loads[worker] / total,
                    "tail_load_pct": 100.0 * tail_loads[worker] / total,
                    "total_load_pct": 100.0
                    * simulation.worker_loads[worker]
                    / total,
                }
            )
    result.notes.append(
        "Ideal load per worker is 100/n percent; PKG overloads the two "
        "workers owning the hottest key (PKG has no head path, so its whole "
        "load is reported as tail)."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 8",
    claim=(
        "PKG overloads the two workers owning the hottest key; W-C mixes "
        "head and tail to reach the ideal 1/n everywhere; RR balances the "
        "head but leaves the tail slightly uneven."
    ),
    run=run,
    config_class=Fig08Config,
    scales={
        "tiny": {"num_messages": 20_000},
        "quick": {"num_messages": 100_000},
        "paper": {"num_messages": 10_000_000},
    },
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="bars", x="worker", y="total_load_pct", series_by=("scheme",)
    ),
)
