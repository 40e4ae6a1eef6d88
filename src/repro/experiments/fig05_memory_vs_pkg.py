"""Figure 5 — memory overhead of D-Choices and W-Choices relative to PKG.

For Zipf workloads (``|K| = 10^4``, ``m = 10^7``, ``epsilon = 10^-4``) the
figure plots the extra worker-side memory (in percent over PKG) needed by
D-C and W-C as a function of the skew, for 50 and 100 workers.  The paper's
take-away: at most ~30% extra in the worst case, and D-C needs considerably
less than W-C at moderate skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.memory import memory_model_for_zipf
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec

EXPERIMENT_ID = "fig5"
TITLE = "Memory overhead of D-C and W-C with respect to PKG vs. skew"


@dataclass(slots=True)
class Fig05Config:
    """Parameters of the Figure 5 reproduction (analytical model)."""

    skews: Sequence[float] = tuple(np.round(np.arange(0.4, 2.01, 0.1), 2))
    num_keys: int = 10_000
    num_messages: int = 10_000_000
    worker_counts: Sequence[int] = (50, 100)
    epsilon: float = 1e-4


def run(config: Fig05Config) -> ExperimentResult:
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
                    "dchoices_vs_pkg_pct": model.dchoices_vs_pkg,
                    "wchoices_vs_pkg_pct": model.wchoices_vs_pkg,
                    "head_cardinality": model.head_size,
                    "d": model.num_choices,
                }
            )
    result.notes.append(
        "Paper observation: both schemes stay within ~30% of PKG's memory in "
        "the worst case; D-C uses considerably less than W-C at moderate skew."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 5",
    claim=(
        "D-C and W-C need at most ~30% more worker-side memory than PKG, "
        "with D-C considerably cheaper than W-C at moderate skew."
    ),
    run=run,
    config_class=Fig05Config,
    scales={
        "tiny": {"skews": (0.8, 1.6), "worker_counts": (50,)},
        # The model is purely analytical, so the full message count costs
        # nothing; only the skew grid is thinned.
        "quick": {"skews": (0.4, 0.8, 1.2, 1.6, 2.0)},
        "paper": {},
    },
    kind="analytical",
    schemes=("D-C", "W-C", "PKG"),
    output=OutputSpec(
        kind="series", x="skew", y="dchoices_vs_pkg_pct", series_by=("workers",)
    ),
)
