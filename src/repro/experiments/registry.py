"""Registry mapping experiment identifiers to their declarative descriptors.

Each driver module declares a ``DESCRIPTOR``
(:class:`~repro.experiments.descriptor.ExperimentDescriptor`); this module
collects them into one lookup table consumed by the CLI, the suite
orchestrator and the docs guard test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True, slots=True)
class ExperimentEntry:
    """One registered experiment; everything derives from its descriptor."""

    #: The full declarative descriptor (paper artifact, claim, output spec).
    descriptor: ExperimentDescriptor

    @property
    def experiment_id(self) -> str:
        """Registry identifier ("fig1" ... "table1")."""
        return self.descriptor.experiment_id

    @property
    def title(self) -> str:
        """Human-readable description of the reproduced artifact."""
        return self.descriptor.title

    @property
    def run(self) -> Callable[..., ExperimentResult]:
        """``run(config)`` of the driver module."""
        return self.descriptor.run

    @property
    def tiny_config(self) -> Callable[[], object]:
        """Factory for the smoke-test (suite/CI-sized) configuration."""
        return self.descriptor.config_class.tiny

    @property
    def quick_config(self) -> Callable[[], object]:
        """Factory for the quick (benchmark-sized) configuration."""
        return self.descriptor.config_class.quick

    @property
    def paper_config(self) -> Callable[[], object]:
        """Factory for the paper-scale configuration."""
        return self.descriptor.config_class.paper

    def config_for(self, scale: str) -> object:
        """Build the preset configuration for ``scale`` (tiny/quick/paper)."""
        return self.descriptor.config(scale)


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


def _build_registry() -> dict[str, ExperimentEntry]:
    registry: dict[str, ExperimentEntry] = {}
    for module in _MODULES:
        entry = ExperimentEntry(descriptor=module.DESCRIPTOR)
        registry[entry.experiment_id] = entry
    return registry


_REGISTRY = _build_registry()


def list_experiments() -> tuple[str, ...]:
    """Identifiers of every registered experiment (fig1 ... table1)."""
    return tuple(_REGISTRY)


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up one experiment by id (case-insensitive)."""
    entry = _REGISTRY.get(experiment_id.lower())
    if entry is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        )
    return entry


def run_experiment(experiment_id: str, scale: str = "quick") -> ExperimentResult:
    """Run one experiment at the requested scale (tiny, quick or paper).

    Scale validation happens in ``descriptor.config``; an unknown scale
    raises :class:`~repro.exceptions.ConfigurationError`.
    """
    entry = get_experiment(experiment_id)
    return entry.run(entry.config_for(scale))
