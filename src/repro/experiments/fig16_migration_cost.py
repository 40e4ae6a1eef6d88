"""Figure 16 (ext.) — migration cost: keys moved & misroutes vs. rescale policy.

Beyond-paper extension: the complement of Figure 15 (ext.).  The same
join/leave/fail schedule is replayed under each rescale policy —
stop-the-world re-hash, consistent-grouping incremental migration, PKG
candidate-set remap — and the migration-cost accountant reports what the
elasticity *costs* per scheme: observed keys whose candidate workers
changed, operator-state entries migrated or lost, bytes of state traffic,
and tuples misrouted during the transition window.

The headline contrast: modulo-hash schemes (KG, PKG, and the head/tail
schemes' tail path) remap nearly every key on any rescale, while the
consistent-hash ring only moves the keys of the changed worker — the
trade-off migration-based systems (Gedik, VLDBJ 2014) build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.elasticity.events import RescalePlan
from repro.elasticity.policies import POLICY_NAMES
from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig16"
TITLE = "Migration cost (keys moved, misroute window) vs. rescale policy"

SCHEMES = ("KG", "PKG", "D-C", "W-C", "CH")


@dataclass(slots=True)
class Fig16Config:
    """Parameters of the migration-cost experiment."""

    num_workers: int = 50
    num_messages: int = 200_000
    num_sources: int = 5
    seed: int = 0
    exponent: float = 1.4
    num_keys: int = 10_000
    #: The elastic schedule every (scheme, policy) cell replays.
    rescale: str = "join@50000,leave@120000,fail@160000"
    policies: Sequence[str] = POLICY_NAMES
    migration_window: int = 5_000
    mode: str | None = None


def run(config: Fig16Config) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "workers": config.num_workers,
            "num_messages": config.num_messages,
            "rescale": config.rescale,
            "policies": tuple(config.policies),
            "migration_window": config.migration_window,
        },
    )
    for policy in config.policies:
        plan = RescalePlan.parse(
            config.rescale,
            policy=policy,
            migration_window=config.migration_window,
        )
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
                mode=execution_mode_of(config),
                rescale_plan=plan,
            )
            migration = simulation.migration
            assert migration is not None  # a plan was configured
            result.rows.append(
                {
                    "scheme": scheme,
                    "policy": policy,
                    "events": migration.events_applied,
                    "keys_moved": migration.keys_moved,
                    "entries_migrated": migration.entries_migrated,
                    "entries_lost": migration.entries_lost,
                    "bytes_migrated": migration.bytes_migrated,
                    "tuples_misrouted": migration.tuples_misrouted,
                    "final_imbalance": simulation.final_imbalance,
                }
            )
    result.notes.append(
        "Extension observation: consistent grouping moves an order of "
        "magnitude fewer keys than the modulo-hash schemes under every "
        "policy; only incremental migration misroutes tuples (bounded by "
        "the window), while stop-the-world re-hash pays instead with reset "
        "sender state and head re-detection."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 16 (ext.)",
    claim=(
        "Rescale cost is dominated by the hashing substrate: consistent "
        "grouping moves ~n-times fewer keys than modulo re-hashing, and only "
        "the incremental-migration policy misroutes tuples (bounded by its "
        "window)."
    ),
    run=run,
    config_class=Fig16Config,
    scales={
        "tiny": {
            "num_workers": 10,
            "num_messages": 20_000,
            "num_keys": 2_000,
            "rescale": "join@5000,leave@12000,fail@15000",
            "migration_window": 1_000,
        },
        "quick": {
            "num_workers": 20,
            "num_messages": 60_000,
            "rescale": "join@15000,leave@36000,fail@48000",
            "migration_window": 2_000,
        },
        "paper": {
            "num_messages": 1_000_000,
            "rescale": "join@250000,leave@600000,fail@800000",
            "migration_window": 10_000,
        },
    },
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="bars",
        x="policy",
        y="keys_moved",
        series_by=("scheme",),
    ),
)
