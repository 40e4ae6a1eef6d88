"""Figure 15 (ext.) — imbalance trajectory through an elastic rescale schedule.

Beyond-paper extension: the paper's Figures 10-12 measure imbalance on a
*fixed* worker set; this experiment replays a worker join/leave/fail
schedule mid-stream and records the imbalance trajectory ``I(t)`` of every
scheme through the transitions.  The question it answers is the production
version of the paper's headline claim: does near-optimal balance *survive*
elasticity, and how quickly does each scheme re-converge after the worker
set changes?

The schedule and the rescale policy are part of the configuration; the
default exercises one join, one graceful leave and one failure under
incremental migration (the policy that keeps the senders' head tables, so
D-C/W-C re-converge without re-learning the heavy hitters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.elasticity.events import RescalePlan
from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig15"
TITLE = "Imbalance through a worker join/leave/fail schedule"

SCHEMES = ("PKG", "D-C", "W-C", "CH")


@dataclass(slots=True)
class Fig15Config:
    """Parameters of the rescale-trajectory experiment."""

    num_workers: int = 50
    num_messages: int = 500_000
    num_sources: int = 5
    seed: int = 0
    exponent: float = 1.4
    num_keys: int = 10_000
    #: The elastic schedule, as a ``kind@offset`` spec (offsets in messages).
    rescale: str = "join@125000,join@200000,leave@300000,fail@400000"
    policy: str = "migrate"
    migration_window: int = 5_000
    #: Number of ``I(t)`` snapshots taken along the stream.
    num_snapshots: int = 50
    mode: str | None = None

    @classmethod
    def paper(cls) -> "Fig15Config":
        return cls(num_messages=1_000_000,
                   rescale="join@250000,join@400000,leave@600000,fail@800000",
                   num_snapshots=100)

    @classmethod
    def quick(cls) -> "Fig15Config":
        return cls(
            num_workers=20,
            num_messages=100_000,
            rescale="join@25000,join@40000,leave@60000,fail@80000",
            migration_window=2_000,
            num_snapshots=25,
        )

    @classmethod
    def tiny(cls) -> "Fig15Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(
            num_workers=10,
            num_messages=20_000,
            num_keys=2_000,
            rescale="join@5000,leave@12000,fail@15000",
            migration_window=1_000,
            num_snapshots=8,
        )


def run(config: Fig15Config | None = None) -> ExperimentResult:
    config = config or Fig15Config()
    plan = RescalePlan.parse(
        config.rescale,
        policy=config.policy,
        migration_window=config.migration_window,
    )
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "workers": config.num_workers,
            "num_messages": config.num_messages,
            "rescale": plan.spec,
            "policy": config.policy,
            "snapshots": config.num_snapshots,
        },
    )
    interval = max(1, config.num_messages // config.num_snapshots)
    for scheme in SCHEMES:
        simulation = run_simulation(
            ZipfWorkload(
                exponent=config.exponent,
                num_keys=config.num_keys,
                num_messages=config.num_messages,
                seed=config.seed,
            ),
            scheme=scheme,
            num_workers=config.num_workers,
            num_sources=config.num_sources,
            seed=config.seed,
            track_interval=interval,
            mode=execution_mode_of(config),
            rescale_plan=plan,
        )
        series = simulation.time_series
        if series is None:
            continue
        for snapshot, (messages, imbalance) in enumerate(series.as_rows()):
            result.rows.append(
                {
                    "scheme": scheme,
                    "snapshot": snapshot,
                    "messages": messages,
                    # Workers active when this snapshot was taken (the
                    # message at `messages - 1` was the last one recorded).
                    "workers": plan.workers_at(
                        max(0, messages - 1), config.num_workers
                    ),
                    "imbalance": imbalance,
                }
            )
        migration = simulation.migration
        if migration is not None:
            result.notes.append(
                f"{scheme}: {migration.events_applied} events, "
                f"{migration.keys_moved} keys moved, "
                f"{migration.tuples_misrouted} tuples misrouted"
            )
    result.notes.append(
        "Extension observation: load-aware schemes absorb joins and leaves "
        "with a transient imbalance spike that decays as the load vectors "
        "re-converge; consistent grouping moves the fewest keys but keeps "
        "key grouping's skew sensitivity."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 15 (ext.)",
    claim=(
        "Near-optimal balance survives elastic rescaling: D-C/W-C re-converge "
        "after worker joins, leaves and failures, with a transient spike "
        "bounded by the migration policy's window."
    ),
    run=run,
    config_class=Fig15Config,
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="series",
        x="messages",
        y="imbalance",
        series_by=("scheme",),
        log_y=True,
    ),
)

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
