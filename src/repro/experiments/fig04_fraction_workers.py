"""Figure 4 — fraction of workers (d/n) used by D-Choices for the head.

For Zipf workloads with ``|K| = 10^4`` and ``epsilon = 10^-4`` the figure
plots the ratio ``d/n`` chosen by the constraint solver as a function of the
skew, for deployments of 5, 10, 50 and 100 workers.  The point of the figure
is that at larger scales D-Choices needs only a fraction of the workers for
the head (unlike W-Choices which always uses all of them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.bounds import theta_range
from repro.analysis.choices import find_optimal_choices
from repro.analysis.head import head_cardinality
from repro.analysis.zipf import ZipfDistribution
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec

EXPERIMENT_ID = "fig4"
TITLE = "Fraction of workers (d/n) used by D-Choices for the head vs. skew"


@dataclass(slots=True)
class Fig04Config:
    """Parameters of the Figure 4 reproduction (purely analytical)."""

    skews: Sequence[float] = tuple(np.round(np.arange(0.1, 2.01, 0.1), 2))
    num_keys: int = 10_000
    worker_counts: Sequence[int] = (5, 10, 50, 100)
    epsilon: float = 1e-4

    @classmethod
    def paper(cls) -> "Fig04Config":
        return cls()

    @classmethod
    def quick(cls) -> "Fig04Config":
        return cls(skews=(0.4, 1.0, 1.6, 2.0), worker_counts=(50, 100))

    @classmethod
    def tiny(cls) -> "Fig04Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(skews=(1.0, 2.0), worker_counts=(50,))


def run(config: Fig04Config | None = None) -> ExperimentResult:
    config = config or Fig04Config()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "num_keys": config.num_keys,
            "epsilon": config.epsilon,
            "workers": tuple(config.worker_counts),
        },
    )
    for num_workers in config.worker_counts:
        theta = theta_range(num_workers).default
        for skew in config.skews:
            distribution = ZipfDistribution.shared(float(skew), config.num_keys)
            head_size = head_cardinality(distribution, theta)
            head = distribution.probabilities[:head_size]
            tail_mass = distribution.tail_mass(head_size)
            solution = find_optimal_choices(
                head, tail_mass, num_workers, config.epsilon
            )
            result.rows.append(
                {
                    "workers": num_workers,
                    "skew": float(skew),
                    "head_cardinality": head_size,
                    "d": solution.num_choices,
                    "d_over_n": solution.num_choices / num_workers,
                    "switched_to_wchoices": solution.use_w_choices,
                }
            )
    result.notes.append(
        "Paper observation: at n = 50 and n = 100 the solver picks d < n "
        "across the skew range, i.e. D-C is strictly cheaper than W-C."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 4",
    claim=(
        "At 50-100 workers the constraint solver picks d < n across the "
        "skew range, i.e. D-Choices is strictly cheaper than W-Choices."
    ),
    run=run,
    config_class=Fig04Config,
    kind="analytical",
    schemes=("D-C",),
    output=OutputSpec(
        kind="series", x="skew", y="d_over_n", series_by=("workers",)
    ),
)

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
