"""Registry mapping experiment identifiers to their declarative descriptors.

Each driver module declares a ``DESCRIPTOR``
(:class:`~repro.experiments.descriptor.ExperimentDescriptor`); this module
collects them into one lookup table consumed by the CLI, the suite
orchestrator and the docs guard test.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.experiments import (
    fig01_scale_imbalance,
    fig03_head_cardinality,
    fig04_fraction_workers,
    fig05_memory_vs_pkg,
    fig06_memory_vs_sg,
    fig07_threshold_sweep,
    fig08_head_tail_load,
    fig09_optimal_d,
    fig10_zipf_imbalance,
    fig11_real_imbalance,
    fig12_imbalance_over_time,
    fig13_throughput,
    fig14_latency,
    fig15_rescale_imbalance,
    fig16_migration_cost,
    fig17_topology_throughput,
    fig18_adaptive,
    scenarios_experiment,
    table1_datasets,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import ExperimentDescriptor


_MODULES = (
    fig01_scale_imbalance,
    fig03_head_cardinality,
    fig04_fraction_workers,
    fig05_memory_vs_pkg,
    fig06_memory_vs_sg,
    fig07_threshold_sweep,
    fig08_head_tail_load,
    fig09_optimal_d,
    fig10_zipf_imbalance,
    fig11_real_imbalance,
    fig12_imbalance_over_time,
    fig13_throughput,
    fig14_latency,
    fig15_rescale_imbalance,
    fig16_migration_cost,
    fig17_topology_throughput,
    fig18_adaptive,
    scenarios_experiment,
    table1_datasets,
)


_REGISTRY: dict[str, ExperimentDescriptor] = {
    module.DESCRIPTOR.experiment_id: module.DESCRIPTOR for module in _MODULES
}


def list_experiments() -> tuple[str, ...]:
    """Identifiers of every registered experiment (fig1 ... table1)."""
    return tuple(_REGISTRY)


def get_experiment(experiment_id: str) -> ExperimentDescriptor:
    """Look up one experiment's descriptor by id (case-insensitive)."""
    descriptor = _REGISTRY.get(experiment_id.lower())
    if descriptor is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        )
    return descriptor


def run_experiment(experiment_id: str, scale: str = "quick") -> ExperimentResult:
    """Run one experiment at the requested scale (tiny, quick or paper).

    Scale validation happens in ``descriptor.config``; an unknown scale
    raises :class:`~repro.exceptions.ConfigurationError`.
    """
    descriptor = get_experiment(experiment_id)
    return descriptor.run(descriptor.config(scale))
