"""Figure 3 — cardinality of the head as a function of skew.

For Zipf distributions with ``|K| = 10^4`` keys the figure shows how many
keys exceed the head threshold, for the two extremes of the admissible range
(``theta = 1/(5n)`` and ``theta = 2/n``) and deployments of 50 and 100
workers.  The head stays small (tens of keys), which is what keeps the
replication overhead of D-C / W-C low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.head import head_cardinality
from repro.analysis.zipf import ZipfDistribution
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec

EXPERIMENT_ID = "fig3"
TITLE = "Cardinality of the head vs. skew for theta in {1/(5n), 2/n}"


@dataclass(slots=True)
class Fig03Config:
    """Parameters of the Figure 3 reproduction (purely analytical)."""

    skews: Sequence[float] = tuple(np.round(np.arange(0.1, 2.01, 0.1), 2))
    num_keys: int = 10_000
    worker_counts: Sequence[int] = (50, 100)

    @classmethod
    def paper(cls) -> "Fig03Config":
        return cls()

    @classmethod
    def quick(cls) -> "Fig03Config":
        return cls(skews=(0.4, 0.8, 1.2, 1.6, 2.0))

    @classmethod
    def tiny(cls) -> "Fig03Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(skews=(0.8, 1.6), worker_counts=(50,))


def run(config: Fig03Config | None = None) -> ExperimentResult:
    config = config or Fig03Config()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"num_keys": config.num_keys, "workers": tuple(config.worker_counts)},
    )
    for num_workers in config.worker_counts:
        thresholds = {
            "1/(5n)": 1.0 / (5.0 * num_workers),
            "2/n": 2.0 / num_workers,
        }
        for skew in config.skews:
            distribution = ZipfDistribution.shared(float(skew), config.num_keys)
            for label, theta in thresholds.items():
                result.rows.append(
                    {
                        "workers": num_workers,
                        "skew": float(skew),
                        "theta": label,
                        "head_cardinality": head_cardinality(distribution, theta),
                    }
                )
    result.notes.append(
        "Paper observation: the head contains at most a few tens of keys; "
        "it grows with skew up to a point and then shrinks again as a "
        "handful of keys dominate."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 3",
    claim=(
        "The head contains at most a few tens of keys across the skew "
        "range, which keeps the replication overhead of D-C / W-C low."
    ),
    run=run,
    config_class=Fig03Config,
    kind="analytical",
    output=OutputSpec(
        kind="series",
        x="skew",
        y="head_cardinality",
        series_by=("workers", "theta"),
    ),
)

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
