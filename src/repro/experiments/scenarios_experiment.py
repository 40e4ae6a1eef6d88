"""Scenario catalog sweep — named traffic patterns with expected bounds.

The paper evaluates its groupings on stationary Zipf streams and three
real-world traces; production streams misbehave in more structured ways.
This experiment sweeps the grouping schemes across the scenario catalog
(:mod:`repro.scenarios.catalog`) — flash crowds, hot-key churn, diurnal
cycles, key-space growth, adversarial single-key floods and drift
mixtures — and checks every run against the scenario's declared
``expected:`` bounds (max imbalance, replication bound, p99 load-factor
bound).

Each row reports the realised metrics next to ``within_expected``; the
violations also appear in the result notes so a bound regression is
visible in the suite report.  The pytest suite under ``tests/scenarios/``
asserts the same bounds at the tiny scale on every CI run, which is what
actually gates merges — this experiment is the exploratory/reporting view
of the same contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.scenarios.catalog import build_workload, check_result, get_scenario
from repro.simulation.runner import run_simulation

EXPERIMENT_ID = "scenarios"
TITLE = "Scenario catalog sweep with expected-bound assertions"

SCHEMES = ("PKG", "D-C", "W-C")

#: Catalog order, duplicated as a literal so config fingerprints change
#: (and cached suite records invalidate) when the catalog itself changes.
ALL_SCENARIOS = (
    "flash_crowd",
    "hot_key_churn",
    "diurnal_cycle",
    "key_space_growth",
    "single_key_flood",
    "drift_mixture",
    "bursty_flash_crowd",
)


@dataclass(slots=True)
class ScenariosConfig:
    """Parameters of the scenario-catalog sweep.

    The catalog's expected bounds are calibrated for the tiny and quick
    scales (8/16 workers); ``paper`` lengthens the stream and widens the
    key space at the same worker count, so the bounds keep holding.
    """

    scenarios: Sequence[str] = ALL_SCENARIOS
    schemes: Sequence[str] = SCHEMES
    num_messages: int = 100_000
    num_keys: int = 5_000
    num_workers: int = 16
    num_sources: int = 5
    mode: str | None = None


def run(config: ScenariosConfig) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "scenarios": tuple(config.scenarios),
            "schemes": tuple(config.schemes),
            "num_messages": config.num_messages,
            "num_keys": config.num_keys,
            "workers": config.num_workers,
        },
    )
    total_violations = 0
    for name in config.scenarios:
        spec = get_scenario(name)  # unknown names fail loudly here
        for scheme in config.schemes:
            workload = build_workload(
                spec, num_messages=config.num_messages, num_keys=config.num_keys
            )
            simulation = run_simulation(
                workload,
                scheme=scheme,
                num_workers=config.num_workers,
                num_sources=config.num_sources,
                mode=execution_mode_of(config),
            )
            violations = check_result(spec, simulation, scheme=scheme)
            total_violations += len(violations)
            result.rows.append(
                {
                    "scenario": spec.name,
                    "pattern": spec.pattern,
                    "scheme": scheme,
                    "workers": config.num_workers,
                    "imbalance": simulation.final_imbalance,
                    "replication": simulation.replication_factor,
                    "p99_load_factor": simulation.p99_load_factor,
                    "within_expected": not violations,
                }
            )
            for violation in violations:
                result.notes.append(
                    f"{spec.name}/{scheme}: {violation}"
                )
    result.notes.append(
        f"{total_violations} expected-bound violation(s) across "
        f"{len(result.rows)} scenario x scheme cells."
        if total_violations
        else (
            f"All {len(result.rows)} scenario x scheme cells stayed within "
            f"their declared expected bounds."
        )
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Scenarios (ext.)",
    claim=(
        "Across flash crowds, hot-key churn, diurnal cycles, key-space "
        "growth, single-key floods and drift mixtures, D-C/W-C stay within "
        "tight imbalance and replication bounds while PKG degrades only on "
        "the adversarial patterns its two choices cannot split."
    ),
    run=run,
    config_class=ScenariosConfig,
    scales={
        "tiny": {"num_messages": 20_000, "num_keys": 1_000, "num_workers": 8},
        "quick": {},
        "paper": {"num_messages": 500_000, "num_keys": 10_000},
    },
    kind="simulation",
    schemes=SCHEMES,
    output=OutputSpec(
        kind="bars",
        y="imbalance",
        series_by=("scenario", "scheme"),
    ),
)
