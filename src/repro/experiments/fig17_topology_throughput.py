"""Figure 17 (ext.) — multi-stage dataflow topology throughput and balance.

The paper deploys its groupings inside full Storm topologies: sources emit
sentences, a splitter bolt breaks them into words, a partitioned counter
aggregates per word, and a key-grouped downstream aggregator reconciles the
partial counts (the two-level aggregation of Section IV-B).  This
experiment reproduces that deployment shape on the in-process dataflow
runtime:

    external posts --SG--> split (stateless flat-map, words per post)
                   --<scheme>--> aggregate (windowed per-word counts)
                   --SG--> rekey (window-tag the partials)
                   --KG--> reconcile (streaming two-level merge)

For every scheme the driver reports end-to-end topology throughput under
batched stage-by-stage execution plus the per-vertex imbalance and the
aggregation (replication) cost — the quantities the paper argues D-Choices
and W-Choices keep low simultaneously.  A tier-1 test in
``tests/experiments/test_dataflow_driver.py`` runs W-C through the same
topology to hold ``columnar:1024`` to >= 2.71x scalar throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.dataflow.graph import Topology
from repro.dataflow.runtime import TopologyResult, run_topology
from repro.experiments.common import ExperimentResult, execution_mode_of
from repro.experiments.descriptor import ExperimentDescriptor, OutputSpec
from repro.operators.aggregations import CountAggregator
from repro.operators.base import StatelessOperator
from repro.operators.reconciliation import ReconciliationSink
from repro.operators.windows import TumblingWindowAssigner, WindowedAggregator
from repro.types import Message
from repro.workloads.zipf_stream import ZipfWorkload

EXPERIMENT_ID = "fig17"
TITLE = "Multi-stage topology throughput and per-vertex balance"

SCHEMES = ("KG", "PKG", "D-C", "W-C", "SG")

#: Vertex names of the word-count topology, in stage order.
VERTICES = ("split", "aggregate", "rekey", "reconcile")


@dataclass(slots=True)
class Fig17Config:
    """Parameters of the multi-stage topology experiment."""

    schemes: Sequence[str] = SCHEMES
    skew: float = 1.5
    num_keys: int = 10_000
    num_posts: int = 40_000
    words_per_post: int = 3
    window: float = 5_000.0
    num_splitters: int = 4
    num_aggregators: int = 16
    num_rekeyers: int = 4
    num_reconcilers: int = 8
    num_external_sources: int = 4
    seed: int = 0
    mode: str | None = None

    @property
    def num_messages(self) -> int:
        """Words flowing over the keyed edge (for scale comparisons)."""
        return self.num_posts * self.words_per_post

    @classmethod
    def paper(cls) -> "Fig17Config":
        return cls(num_posts=200_000)

    @classmethod
    def quick(cls) -> "Fig17Config":
        return cls()

    @classmethod
    def tiny(cls) -> "Fig17Config":
        """Smoke-test scale used by the suite orchestrator and CI."""
        return cls(
            num_keys=2_000,
            num_posts=2_000,
            window=500.0,
            num_aggregators=8,
            num_reconcilers=4,
        )


def make_posts(config: Fig17Config) -> list[Message]:
    """The external stream: one message per post, carrying its words.

    The words are pre-drawn from the Zipf stream so every scheme (and every
    batch size) sees the identical workload.
    """
    words = list(
        ZipfWorkload(
            exponent=config.skew,
            num_keys=config.num_keys,
            num_messages=config.num_posts * config.words_per_post,
            seed=config.seed,
        )
    )
    per_post = config.words_per_post
    return [
        Message(
            timestamp=float(index),
            key=index,
            value=tuple(words[index * per_post : (index + 1) * per_post]),
        )
        for index in range(config.num_posts)
    ]


def build_topology(config: Fig17Config, scheme: str) -> Topology:
    """The word-count topology with ``scheme`` on the keyed edge."""

    def splitter(instance_id: int) -> StatelessOperator:
        return StatelessOperator(
            lambda message: [
                Message(message.timestamp, word, 1) for word in message.value
            ],
            instance_id=instance_id,
        )

    window = float(config.window)

    def aggregator(instance_id: int) -> WindowedAggregator:
        return WindowedAggregator(
            TumblingWindowAssigner(window),
            lambda accumulator, _: accumulator + 1,
            int,
            instance_id=instance_id,
        )

    def rekeyer(instance_id: int) -> StatelessOperator:
        # A closed window arrives as (key=word, value=(start, count)); tag
        # the key with the window so the reconciler merges per (window,
        # word).  String keys keep the KG hashing deterministic.
        return StatelessOperator(
            lambda message: [
                Message(
                    message.timestamp,
                    f"{message.value[0]:g}|{message.key}",
                    message.value[1],
                )
            ],
            instance_id=instance_id,
        )

    def reconciler(instance_id: int) -> ReconciliationSink:
        return ReconciliationSink(CountAggregator.merge, instance_id=instance_id)

    return (
        Topology("wordcount-two-level")
        .add_vertex("split", splitter, parallelism=config.num_splitters)
        .add_vertex("aggregate", aggregator, parallelism=config.num_aggregators)
        .add_vertex("rekey", rekeyer, parallelism=config.num_rekeyers)
        .add_vertex("reconcile", reconciler, parallelism=config.num_reconcilers)
        .set_source("split", scheme="SG")
        .add_edge("split", "aggregate", scheme=scheme)
        .add_edge("aggregate", "rekey", scheme="SG")
        .add_edge("rekey", "reconcile", scheme="KG")
    )


def run_scheme(
    config: Fig17Config,
    scheme: str,
    posts: list[Message] | None = None,
) -> tuple[TopologyResult, float]:
    """Run one scheme through the topology; returns (result, elapsed s)."""
    if posts is None:
        posts = make_posts(config)
    topology = build_topology(config, scheme)
    started = time.perf_counter()
    result = run_topology(
        topology,
        posts,
        seed=config.seed,
        num_external_sources=config.num_external_sources,
        mode=execution_mode_of(config),
    )
    return result, time.perf_counter() - started


def run(config: Fig17Config | None = None) -> ExperimentResult:
    config = config or Fig17Config()
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        parameters={
            "skew": config.skew,
            "num_keys": config.num_keys,
            "num_posts": config.num_posts,
            "words_per_post": config.words_per_post,
            "aggregators": config.num_aggregators,
            "mode": execution_mode_of(config).spec,
        },
    )
    posts = make_posts(config)
    words = config.num_messages
    for scheme in config.schemes:
        topology_result, elapsed = run_scheme(config, scheme, posts=posts)
        aggregate = topology_result.vertex_metrics("aggregate")
        reconcile = topology_result.vertex_metrics("reconcile")
        # Replication of a (window, word) slot = number of aggregator
        # instances that emitted a partial for it = partials the sink
        # folded into that slot (each closed window emits one partial per
        # holding instance).
        max_replication = max(
            (
                max(sink.partials_merged.values(), default=0)
                for sink in topology_result.instances["reconcile"]
            ),
            default=0,
        )
        result.rows.append(
            {
                "scheme": scheme,
                "throughput_per_s": words / max(elapsed, 1e-9),
                "aggregate_imbalance": aggregate.imbalance,
                "reconcile_imbalance": reconcile.imbalance,
                "max_replication": max_replication,
                "reconciled_entries": reconcile.total_state_entries,
            }
        )
    result.notes.append(
        "Extension of the paper's Storm deployment: on the multi-stage "
        "word-count topology D-C/W-C keep the aggregation stage as balanced "
        "as SG at a fraction of its replication, while KG concentrates the "
        "head keys on single instances."
    )
    return result


DESCRIPTOR = ExperimentDescriptor(
    experiment_id=EXPERIMENT_ID,
    title=TITLE,
    artifact="Figure 17 (ext.)",
    claim=(
        "On a multi-stage word-count topology D-C / W-C hold the "
        "aggregation stage's imbalance near SG's at bounded replication, "
        "and batched stage-by-stage execution sustains a multiple of the "
        "scalar depth-first throughput."
    ),
    run=run,
    config_class=Fig17Config,
    kind="dataflow",
    schemes=SCHEMES,
    output=OutputSpec(kind="bars", y="throughput_per_s", series_by=("scheme",)),
)

main = DESCRIPTOR.cli_main

if __name__ == "__main__":  # pragma: no cover
    main()
