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

from repro._exports import lazy_exports
from repro._version import __version__

#: Who defines each name ``repro`` exports.  Nothing here is imported with
#: the package: a name's module is imported on its first read (see
#: :mod:`repro._exports`), so plain library use (partitioners, sketches,
#: simulation) never compiles the cluster model, the dataflow substrate or
#: the experiment suite.
__getattr__ = lazy_exports(
    __name__,
    {
        ".analysis.bounds": ("theta_range",),
        ".analysis.choices": (
            "ChoicesSolution",
            "expected_worker_set_size",
            "find_optimal_choices",
        ),
        ".analysis.memory": ("memory_model_for_zipf",),
        ".analysis.zipf": ("ZipfDistribution",),
        ".cluster.results": ("ClusterResult",),
        ".cluster.runner": ("run_cluster_experiment",),
        ".cluster.topology": ("ClusterTopology",),
        ".dataflow.graph": ("Topology",),
        ".dataflow.runtime": ("TopologyResult", "run_topology"),
        ".elasticity.accountant": ("MigrationReport",),
        ".elasticity.events": ("RescalePlan", "WorkerFail", "WorkerJoin", "WorkerLeave"),
        ".exceptions": (
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
        ),
        ".execution": ("ExecutionMode",),
        ".operators.aggregations": ("CountAggregator",),
        ".operators.reconciliation": ("ReconciliationSink", "reconcile"),
        ".operators.windows": ("TumblingWindowAssigner", "WindowedAggregator"),
        ".partitioning.base": ("Partitioner",),
        ".partitioning.consistent_grouping": ("ConsistentGrouping",),
        ".partitioning.d_choices": ("DChoices",),
        ".partitioning.fixed_d": ("FixedDHead",),
        ".partitioning.greedy_d": ("GreedyD",),
        ".partitioning.key_grouping": ("KeyGrouping",),
        ".partitioning.partial_key_grouping": ("PartialKeyGrouping",),
        ".partitioning.registry": ("available_schemes", "create_partitioner"),
        ".partitioning.round_robin_head": ("RoundRobinHead",),
        ".partitioning.shuffle_grouping": ("ShuffleGrouping",),
        ".partitioning.w_choices": ("WChoices",),
        ".scenarios.catalog": ("build_workload", "list_scenarios"),
        ".scenarios.spec": ("ScenarioSpec",),
        ".scenarios.workload": ("ScenarioWorkload",),
        ".simulation.config": ("SimulationConfig",),
        ".simulation.results": ("SimulationResult",),
        ".simulation.runner": ("run_simulation", "sweep"),
        ".sketches.space_saving": ("SpaceSaving",),
        ".suite.orchestrator": ("run_suite",),
        ".suite.store": ("ResultsStore",),
        ".types": ("DatasetStats", "LoadSnapshot", "Message", "RoutingDecision"),
        ".workloads.base": ("Workload", "derive_seed"),
        ".workloads.catalog": ("load_dataset",),
        ".workloads.drift": ("DriftingZipfWorkload",),
        ".workloads.file_stream": ("FileWorkload",),
        ".workloads.synthetic": (
            "CashtagLikeWorkload",
            "TwitterLikeWorkload",
            "WikipediaLikeWorkload",
        ),
        ".workloads.zipf_stream": ("ZipfWorkload",),
    },
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
    "CountAggregator",
    "ReconciliationSink",
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
    # suite
    "ResultsStore",
    "run_suite",
]
