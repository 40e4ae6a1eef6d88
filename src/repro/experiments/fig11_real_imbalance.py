"""Figure 11 — imbalance on the real-world workloads vs. number of workers.

PKG, D-C and W-C on the Wikipedia-like, Twitter-like and Cashtag-like
workloads, with the deployment size swept over {5, 10, 20, 50, 100}.  The
paper finds all schemes fine at small scale, PKG degrading from ~20 workers
upward, and the drifting CT workload being the hardest for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.base import Workload
from repro.workloads.synthetic import (
    CashtagLikeWorkload,
    TwitterLikeWorkload,
    WikipediaLikeWorkload,
)

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

    @classmethod
    def paper(cls) -> "Fig11Config":
        return cls(num_messages=2_000_000)

    @classmethod
    def quick(cls) -> "Fig11Config":
        return cls(
            worker_counts=(10, 50),
            num_messages=100_000,
            datasets=("WP", "CT"),
        )

    @classmethod
    def tiny(cls) -> "Fig11Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(
            worker_counts=(10,),
            num_messages=20_000,
            datasets=("WP",),
        )

    def workload_factory(self, symbol: str) -> Callable[[], Workload]:
        """A zero-argument factory building the scaled workload for ``symbol``."""
        if symbol == "WP":
            return lambda: WikipediaLikeWorkload(
                num_messages=self.num_messages, seed=self.seed
            )
        if symbol == "TW":
            return lambda: TwitterLikeWorkload(
                num_messages=self.num_messages, seed=self.seed
            )
        if symbol == "CT":
            return lambda: CashtagLikeWorkload(
                num_messages=min(self.num_messages, 690_000), seed=self.seed
            )
        raise ValueError(f"unknown dataset symbol {symbol!r}")


def run(config: Fig11Config | None = None) -> ExperimentResult:
    config = config or Fig11Config()
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
        factory = config.workload_factory(symbol)
        for scheme in SCHEMES:
            for num_workers in config.worker_counts:
                simulation = run_simulation(
                    factory(),
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

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
