"""Figure 1 — imbalance versus deployment size on the Wikipedia workload.

The motivating figure of the paper: PKG keeps the Wikipedia stream balanced
at 5-10 workers, but its imbalance grows towards 10% at 20-100 workers,
while D-Choices and W-Choices stay below 0.1% at every scale.

The driver runs the WP-like workload through PKG, D-C and W-C for each
deployment size and reports the final imbalance ``I(m)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.synthetic import WikipediaLikeWorkload

EXPERIMENT_ID = "fig1"
TITLE = "Imbalance vs. number of workers on the Wikipedia-like workload"

#: Scheme line-up of the figure.
SCHEMES = ("PKG", "D-C", "W-C")


@dataclass(slots=True)
class Fig01Config:
    """Parameters of the Figure 1 reproduction."""

    worker_counts: Sequence[int] = (5, 10, 20, 50, 100)
    num_messages: int = 2_000_000
    num_body_keys: int = 100_000
    num_sources: int = 5
    seed: int = 0
    mode: str | None = None

    @classmethod
    def paper(cls) -> "Fig01Config":
        """Paper-scale parameters (the WP trace itself is substituted)."""
        return cls(num_messages=2_000_000, num_body_keys=100_000)

    @classmethod
    def quick(cls) -> "Fig01Config":
        """Benchmark-friendly scale (seconds instead of minutes)."""
        return cls(
            worker_counts=(5, 10, 50),
            num_messages=100_000,
            num_body_keys=20_000,
        )

    @classmethod
    def tiny(cls) -> "Fig01Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(
            worker_counts=(5, 10),
            num_messages=20_000,
            num_body_keys=5_000,
        )


def run(config: Fig01Config | None = None) -> ExperimentResult:
    config = config or Fig01Config()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "workers": tuple(config.worker_counts),
            "messages": config.num_messages,
            "sources": config.num_sources,
        },
    )
    for scheme in SCHEMES:
        for num_workers in config.worker_counts:
            workload = WikipediaLikeWorkload(
                num_messages=config.num_messages,
                num_body_keys=config.num_body_keys,
                seed=config.seed,
            )
            simulation = run_simulation(
                workload,
                scheme=scheme,
                num_workers=num_workers,
                num_sources=config.num_sources,
                seed=config.seed,
                mode=execution_mode_of(config),
            )
            result.rows.append(
                {
                    "scheme": scheme,
                    "workers": num_workers,
                    "imbalance": simulation.final_imbalance,
                }
            )
    result.notes.append(
        "Paper observation: PKG imbalance approaches 1e-1 at 50-100 workers "
        "while D-C and W-C stay below 1e-3."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 1",
    claim=(
        "PKG's imbalance grows towards 10% at 20-100 workers on the "
        "Wikipedia workload while D-C and W-C stay below 0.1%."
    ),
    run=run,
    config_class=Fig01Config,
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="series", x="workers", y="imbalance", series_by=("scheme",), log_y=True
    ),
)

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
