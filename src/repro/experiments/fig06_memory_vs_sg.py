"""Figure 6 — memory overhead of D-Choices and W-Choices relative to SG.

Same analytical setting as Figure 5, but the reference is shuffle grouping:
the figure shows that D-C and W-C need 70-100% *less* memory than SG
(negative overhead), i.e. they deliver SG-like balance at a fraction of its
replication cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.memory import memory_model_for_zipf
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec

EXPERIMENT_ID = "fig6"
TITLE = "Memory overhead of D-C and W-C with respect to SG vs. skew"


@dataclass(slots=True)
class Fig06Config:
    """Parameters of the Figure 6 reproduction (analytical model)."""

    skews: Sequence[float] = tuple(np.round(np.arange(0.4, 2.01, 0.1), 2))
    num_keys: int = 10_000
    num_messages: int = 10_000_000
    worker_counts: Sequence[int] = (50, 100)
    epsilon: float = 1e-4


def run(config: Fig06Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "num_keys": config.num_keys,
            "num_messages": config.num_messages,
            "epsilon": config.epsilon,
        },
    )
    for num_workers in config.worker_counts:
        for skew in config.skews:
            model = memory_model_for_zipf(
                exponent=float(skew),
                num_keys=config.num_keys,
                num_messages=config.num_messages,
                num_workers=num_workers,
                epsilon=config.epsilon,
            )
            result.rows.append(
                {
                    "workers": num_workers,
                    "skew": float(skew),
                    "dchoices_vs_sg_pct": model.dchoices_vs_shuffle,
                    "wchoices_vs_sg_pct": model.wchoices_vs_shuffle,
                }
            )
    result.notes.append(
        "Paper observation: D-C and W-C use at least ~70-80% less memory "
        "than shuffle grouping across the whole skew range."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 6",
    claim=(
        "D-C and W-C use at least ~70-80% less memory than shuffle "
        "grouping across the whole skew range."
    ),
    run=run,
    config_class=Fig06Config,
    scales={
        "tiny": {"skews": (0.8, 1.6), "worker_counts": (50,)},
        # The model is purely analytical, so the full message count costs
        # nothing; only the skew grid is thinned.
        "quick": {"skews": (0.4, 0.8, 1.2, 1.6, 2.0)},
        "paper": {},
    },
    kind="analytical",
    schemes=("D-C", "W-C", "SG"),
    output=OutputSpec(
        kind="series", x="skew", y="dchoices_vs_sg_pct", series_by=("workers",)
    ),
)
