"""repro — reproduction of "When Two Choices Are not Enough: Balancing at
Scale in Distributed Stream Processing" (Nasir et al., ICDE 2016).

The package implements the paper's load-balancing algorithms (D-Choices and
W-Choices), every baseline they are compared against (key grouping, shuffle
grouping, Partial Key Grouping, round-robin head placement), the substrates
they rely on (SpaceSaving heavy-hitter sketches, seeded hash families), the
analytical machinery of Section IV (the ``d`` solver and memory models) and
two simulators: a stream-partitioning simulator for the imbalance studies
and a discrete-event cluster simulator for the throughput/latency studies.

Quickstart
----------
>>> from repro import ZipfWorkload, run_simulation
>>> workload = ZipfWorkload(exponent=1.5, num_keys=1000, num_messages=20_000)
>>> result = run_simulation(workload, scheme="D-C", num_workers=20)
>>> result.final_imbalance < 0.05
True
"""

from repro._version import __version__
from repro.analysis import (
    ChoicesSolution,
    ZipfDistribution,
    expected_worker_set_size,
    find_optimal_choices,
    theta_range,
)
from repro.analysis.memory import memory_model_for_zipf
from repro.cluster import ClusterResult, ClusterTopology, run_cluster_experiment
from repro.dataflow import Topology, TopologyResult, run_topology
from repro.elasticity import (
    MigrationReport,
    RescalePlan,
    WorkerFail,
    WorkerJoin,
    WorkerLeave,
)
from repro.exceptions import (
    AnalysisError,
    ClusterRuntimeError,
    ConfigurationError,
    PartitioningError,
    ReproError,
    ScenarioError,
    SimulationError,
    SketchError,
    WorkerCrashError,
    WorkloadError,
)
from repro.execution import ExecutionMode
from repro.operators import (
    AverageAggregator,
    CountAggregator,
    ReconciliationSink,
    SumAggregator,
    TopKAggregator,
    TumblingWindowAssigner,
    WindowedAggregator,
    reconcile,
)
from repro.partitioning import (
    ConsistentGrouping,
    DChoices,
    FixedDHead,
    GreedyD,
    KeyGrouping,
    PartialKeyGrouping,
    Partitioner,
    RoundRobinHead,
    ShuffleGrouping,
    WChoices,
    available_schemes,
    create_partitioner,
)
from repro.simulation import SimulationConfig, SimulationResult, run_simulation, sweep
from repro.sketches import SpaceSaving
from repro.types import DatasetStats, LoadSnapshot, Message, RoutingDecision
from repro.scenarios import ScenarioSpec, ScenarioWorkload, build_workload, list_scenarios
from repro.workloads import (
    CashtagLikeWorkload,
    DriftingZipfWorkload,
    FileWorkload,
    TwitterLikeWorkload,
    WikipediaLikeWorkload,
    Workload,
    ZipfWorkload,
    derive_seed,
    load_dataset,
)

__all__ = [
    "__version__",
    # exceptions
    "AnalysisError",
    "ClusterRuntimeError",
    "ConfigurationError",
    "PartitioningError",
    "ReproError",
    "ScenarioError",
    "SimulationError",
    "SketchError",
    "WorkerCrashError",
    "WorkloadError",
    # types
    "DatasetStats",
    "LoadSnapshot",
    "Message",
    "RoutingDecision",
    # sketches
    "SpaceSaving",
    # operators / dataflow
    "AverageAggregator",
    "CountAggregator",
    "ReconciliationSink",
    "SumAggregator",
    "TopKAggregator",
    "Topology",
    "TopologyResult",
    "TumblingWindowAssigner",
    "WindowedAggregator",
    "reconcile",
    "run_topology",
    # partitioning
    "ConsistentGrouping",
    "DChoices",
    "FixedDHead",
    "GreedyD",
    "KeyGrouping",
    "PartialKeyGrouping",
    "Partitioner",
    "RoundRobinHead",
    "ShuffleGrouping",
    "WChoices",
    "available_schemes",
    "create_partitioner",
    # analysis
    "ChoicesSolution",
    "ZipfDistribution",
    "expected_worker_set_size",
    "find_optimal_choices",
    "memory_model_for_zipf",
    "theta_range",
    # workloads
    "CashtagLikeWorkload",
    "DriftingZipfWorkload",
    "FileWorkload",
    "TwitterLikeWorkload",
    "WikipediaLikeWorkload",
    "Workload",
    "ZipfWorkload",
    "derive_seed",
    "load_dataset",
    # scenarios
    "ScenarioSpec",
    "ScenarioWorkload",
    "build_workload",
    "list_scenarios",
    # elasticity
    "MigrationReport",
    "RescalePlan",
    "WorkerFail",
    "WorkerJoin",
    "WorkerLeave",
    # execution
    "ExecutionMode",
    # simulation
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
    "sweep",
    # cluster
    "ClusterResult",
    "ClusterTopology",
    "run_cluster_experiment",
    # suite (lazy, see __getattr__)
    "ResultsStore",
    "run_suite",
]

#: Importing the suite pulls in every experiment driver module via the
#: registry; resolve these two names lazily (PEP 562) so plain library use
#: (partitioners, sketches, simulation) does not pay that import cost.
_LAZY_SUITE_EXPORTS = frozenset({"ResultsStore", "run_suite"})


def __getattr__(name: str):
    if name in _LAZY_SUITE_EXPORTS:
        from repro import suite

        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
