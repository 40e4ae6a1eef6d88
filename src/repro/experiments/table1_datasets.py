"""Table I — summary of the datasets used in the experiments.

The driver reports, side by side, the statistics published in the paper and
the statistics of the synthetic stand-ins generated by this reproduction (at
their default scaled-down sizes), so the substitution is visible at a glance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.workloads.catalog import DATASETS
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "table1"
TITLE = "Dataset summary: published statistics vs. synthetic stand-ins"


@dataclass(slots=True)
class Table1Config:
    """Parameters of the Table I reproduction."""

    #: Measure the generated streams (consumes them); otherwise only nominal
    #: statistics are reported.
    measure_generated: bool = True
    #: Message budget used when measuring the stand-ins (keeps the run quick).
    measured_messages: int = 200_000
    zipf_exponent: float = 2.0
    zipf_keys: int = 10_000
    seed: int = 0


def run(config: Table1Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={"measured_messages": config.measured_messages},
    )
    for symbol, entry in DATASETS.items():
        row: dict[str, object] = {
            "dataset": entry.name,
            "symbol": symbol,
            "paper_messages": entry.published.messages,
            "paper_keys": entry.published.keys,
            "paper_p1_pct": round(100.0 * entry.published.p1, 2)
            if entry.published.p1 == entry.published.p1  # not NaN
            else "z-dependent",
        }
        if config.measure_generated:
            if symbol == "ZF":
                workload = ZipfWorkload(
                    exponent=config.zipf_exponent,
                    num_keys=config.zipf_keys,
                    num_messages=config.measured_messages,
                    seed=config.seed,
                )
            elif symbol == "CT":
                workload = entry.factory(seed=config.seed)
            else:
                workload = entry.factory(
                    num_messages=config.measured_messages, seed=config.seed
                )
            measured = workload.measured_stats()
            row.update(
                {
                    "repro_messages": measured.messages,
                    "repro_keys": measured.keys,
                    "repro_p1_pct": round(100.0 * measured.p1, 2),
                }
            )
        result.rows.append(row)
    result.notes.append(
        "The stand-ins match the published p1 (the statistic that drives "
        "load imbalance); message and key counts are scaled down by design."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Table I",
    claim=(
        "The synthetic stand-ins match the published p1 of each dataset — "
        "the statistic that drives load imbalance."
    ),
    run=run,
    config_class=Table1Config,
    scales={
        "tiny": {"measured_messages": 10_000},
        "quick": {"measured_messages": 50_000},
        "paper": {"measured_messages": 2_000_000},
    },
    kind="analytical",
    output=OutputSpec(kind="table"),
)
