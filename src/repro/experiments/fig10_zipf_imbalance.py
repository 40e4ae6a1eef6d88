"""Figure 10 — imbalance vs. skew on Zipf streams for PKG, D-C, W-C and RR.

The full grid of the paper sweeps the number of workers (5, 10, 50, 100),
the key-space size (10^4, 10^5, 10^6) and the skew (0.1 ... 2.0) with
``m = 10^7`` messages.  The reproduction keeps the same axes with
configurable (scaled-down) defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig10"
TITLE = "Imbalance vs. skew on Zipf streams (PKG, D-C, W-C, RR)"

SCHEMES = ("PKG", "D-C", "W-C", "RR")


@dataclass(slots=True)
class Fig10Config:
    """Parameters of the Figure 10 reproduction."""

    skews: Sequence[float] = (0.4, 0.8, 1.2, 1.6, 2.0)
    worker_counts: Sequence[int] = (5, 10, 50, 100)
    key_counts: Sequence[int] = (10_000, 100_000, 1_000_000)
    num_messages: int = 1_000_000
    num_sources: int = 5
    seed: int = 0
    schemes: Sequence[str] = SCHEMES
    mode: str | None = None

    @classmethod
    def paper(cls) -> "Fig10Config":
        return cls(num_messages=10_000_000)

    @classmethod
    def quick(cls) -> "Fig10Config":
        return cls(
            skews=(0.8, 1.6, 2.0),
            worker_counts=(10, 50),
            key_counts=(10_000,),
            num_messages=100_000,
        )

    @classmethod
    def tiny(cls) -> "Fig10Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(
            skews=(2.0,),
            worker_counts=(10,),
            key_counts=(10_000,),
            num_messages=8_000,
        )


def run(config: Fig10Config | None = None) -> ExperimentResult:
    config = config or Fig10Config()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "num_messages": config.num_messages,
            "workers": tuple(config.worker_counts),
            "key_counts": tuple(config.key_counts),
        },
    )
    for num_keys in config.key_counts:
        for num_workers in config.worker_counts:
            for skew in config.skews:
                for scheme in config.schemes:
                    workload = ZipfWorkload(
                        exponent=float(skew),
                        num_keys=num_keys,
                        num_messages=config.num_messages,
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
                            "num_keys": num_keys,
                            "workers": num_workers,
                            "skew": float(skew),
                            "imbalance": simulation.final_imbalance,
                        }
                    )
    result.notes.append(
        "Paper observation: the key-space size barely matters; skew and scale "
        "do.  W-C is the best performer, D-C and RR are close behind, and "
        "PKG degrades sharply for large z and n."
    )
    result.notes.append(
        "The worst-case expected imbalance for D-C is s * epsilon (each "
        "source enforces the constraint independently)."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 10",
    claim=(
        "The key-space size barely matters; skew and scale do.  W-C is the "
        "best performer, D-C and RR close behind, and PKG degrades sharply "
        "for large z and n."
    ),
    run=run,
    config_class=Fig10Config,
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="series",
        x="skew",
        y="imbalance",
        series_by=("scheme", "workers", "num_keys"),
        log_y=True,
    ),
)

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
