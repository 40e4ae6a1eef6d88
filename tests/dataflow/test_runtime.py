"""Unit and behavioural tests for the dataflow runtime."""

from __future__ import annotations

import pytest

from repro.dataflow.graph import Topology
from repro.dataflow.runtime import run_topology
from repro.exceptions import ConfigurationError
from repro.operators.aggregations import CountAggregator
from repro.operators.base import StatelessOperator
from repro.operators.reconciliation import reconcile
from repro.types import Message
from repro.workloads.zipf_stream import ZipfWorkload


def _word_split_factory(instance_id: int) -> StatelessOperator:
    return StatelessOperator(
        lambda message: [
            Message(message.timestamp, word, 1) for word in str(message.value).split()
        ],
        instance_id=instance_id,
    )


def _counting_topology(scheme: str, parallelism: int = 4) -> Topology:
    topology = Topology("wordcount")
    topology.add_vertex("counter", CountAggregator, parallelism=parallelism)
    topology.set_source("counter", scheme=scheme)
    return topology


class TestRunTopology:
    def test_counts_all_messages(self):
        result = run_topology(_counting_topology("PKG"), ["a", "b", "a"] * 100)
        metrics = result.vertex_metrics("counter")
        assert metrics.messages == 300
        assert sum(metrics.instance_loads) == 300

    def test_empty_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            run_topology(_counting_topology("PKG"), [])

    def test_invalid_topology_rejected_before_running(self):
        topology = Topology("broken")
        topology.add_vertex("v", CountAggregator)
        with pytest.raises(ConfigurationError):
            run_topology(topology, ["a"])

    def test_unknown_vertex_metrics_rejected(self):
        result = run_topology(_counting_topology("SG"), ["a"] * 10)
        with pytest.raises(ConfigurationError):
            result.vertex_metrics("nope")

    def test_bad_external_source_count(self):
        with pytest.raises(ConfigurationError):
            run_topology(_counting_topology("SG"), ["a"], num_external_sources=0)

    def test_key_grouping_keeps_key_on_one_instance(self):
        result = run_topology(_counting_topology("KG"), ["x", "y"] * 100)
        counters = result.instances["counter"]
        for key in ("x", "y"):
            holders = [c for c in counters if c.state.peek(key) is not None]
            assert len(holders) == 1

    def test_pkg_splits_key_over_at_most_two_instances(self):
        workload = ZipfWorkload(1.5, 100, 5000, seed=3)
        result = run_topology(_counting_topology("PKG", parallelism=8), workload,
                              num_external_sources=4)
        counters = result.instances["counter"]
        for key in range(1, 20):
            holders = [c for c in counters if c.state.peek(key) is not None]
            assert len(holders) <= 2

    def test_reconciled_counts_are_exact(self):
        workload = list(ZipfWorkload(1.8, 200, 10_000, seed=5))
        result = run_topology(_counting_topology("D-C", parallelism=8), workload,
                              num_external_sources=4)
        merged, cost = reconcile(result.instances["counter"], CountAggregator.merge)
        from collections import Counter

        assert merged == dict(Counter(workload))
        assert cost.max_replication <= 8

    def test_dchoices_balances_better_than_kg(self):
        def imbalance(scheme: str) -> float:
            workload = ZipfWorkload(1.8, 1000, 30_000, seed=7)
            result = run_topology(
                _counting_topology(scheme, parallelism=10), workload,
                num_external_sources=5,
            )
            return result.vertex_metrics("counter").imbalance

        assert imbalance("D-C") < imbalance("KG")

    def test_multi_stage_topology(self):
        topology = Topology("split-count")
        topology.add_vertex("splitter", _word_split_factory, parallelism=2)
        topology.add_vertex("counter", CountAggregator, parallelism=4)
        topology.set_source("splitter", scheme="SG")
        topology.add_edge("splitter", "counter", scheme="PKG")
        sentences = [Message(float(i), f"line-{i}", "alpha beta") for i in range(100)]
        result = run_topology(topology, sentences)
        assert result.vertex_metrics("splitter").messages == 100
        # every sentence produces two words
        assert result.vertex_metrics("counter").messages == 200
        merged, _ = reconcile(result.instances["counter"], CountAggregator.merge)
        assert merged == {"alpha": 100, "beta": 100}

    def test_vertex_metrics_state_sizes(self):
        result = run_topology(_counting_topology("KG"), ["a", "b", "c"] * 10)
        metrics = result.vertex_metrics("counter")
        assert metrics.total_state_entries == 3

    def test_imbalance_zero_for_idle_vertex(self):
        topology = Topology("t")
        topology.add_vertex("counter", CountAggregator, parallelism=2)
        topology.add_vertex("sink", CountAggregator, parallelism=2)
        topology.set_source("counter", scheme="SG")
        topology.add_edge("counter", "sink", scheme="SG")
        result = run_topology(topology, ["a"] * 10)
        # CountAggregator emits nothing, so the sink never sees traffic
        assert result.vertex_metrics("sink").messages == 0
        assert result.vertex_metrics("sink").imbalance == 0.0


class TestBatchedExecution:
    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            run_topology(_counting_topology("SG"), ["a"], mode="columnar:0")

    def test_empty_workload_rejected_in_batched_mode(self):
        with pytest.raises(ConfigurationError):
            run_topology(_counting_topology("PKG"), [], mode="columnar:64")

    @pytest.mark.parametrize("batch_size", [1, 3, 100, 4096])
    def test_counts_identical_for_every_batch_size(self, batch_size):
        result = run_topology(
            _counting_topology("PKG"), ["a", "b", "a"] * 100,
            mode="scalar" if batch_size == 1 else f"columnar:{batch_size}",
        )
        metrics = result.vertex_metrics("counter")
        assert metrics.messages == 300
        assert sum(metrics.instance_loads) == 300

    def test_multi_stage_batched_matches_scalar_loads(self):
        def build():
            topology = Topology("split-count")
            topology.add_vertex("splitter", _word_split_factory, parallelism=2)
            topology.add_vertex("counter", CountAggregator, parallelism=4)
            topology.set_source("splitter", scheme="SG")
            topology.add_edge("splitter", "counter", scheme="PKG")
            return topology

        sentences = [
            Message(float(i), f"line-{i}", "alpha beta") for i in range(200)
        ]
        scalar = run_topology(build(), sentences, mode="scalar")
        batched = run_topology(build(), sentences, mode="columnar:64")
        for vertex in ("splitter", "counter"):
            assert (
                batched.vertex_metrics(vertex).instance_loads
                == scalar.vertex_metrics(vertex).instance_loads
            )
        merged, _ = reconcile(batched.instances["counter"], CountAggregator.merge)
        assert merged == {"alpha": 200, "beta": 200}
