"""Batched dataflow execution must be byte-identical to scalar execution.

The stage-by-stage micro-batch engine (vectorized edge routing, bulk
operator execution, order-key merging at fan-in vertices) is pure
optimisation: for every scheme, every topology shape and every batch size,
``run_topology(mode="columnar:n")`` must produce the exact per-vertex metrics —
worker sequences, per-instance loads, state sizes — and the exact
reconciled state of depth-first scalar execution (``mode="scalar"``).
These tests pin that contract, mirroring what
``test_batch_equivalence.py`` pins for the routing engines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import Topology
from repro.dataflow.runtime import run_topology
from repro.operators.aggregations import CountAggregator
from repro.operators.base import StatelessOperator
from repro.operators.reconciliation import ReconciliationSink
from repro.operators.windows import TumblingWindowAssigner, WindowedAggregator
from repro.types import Message
from repro.workloads.zipf_stream import ZipfWorkload

SCHEMES = ("KG", "SG", "PKG", "D-C", "W-C", "RR")


def _splitter(instance_id: int) -> StatelessOperator:
    return StatelessOperator(
        lambda message: [Message(message.timestamp, f"w-{message.key}", 1)],
        instance_id=instance_id,
    )


def _windowed(instance_id: int) -> WindowedAggregator:
    return WindowedAggregator(
        TumblingWindowAssigner(64.0),
        lambda accumulator, _: accumulator + 1,
        int,
        instance_id=instance_id,
    )


def _rekeyer(instance_id: int) -> StatelessOperator:
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


def _sink(instance_id: int) -> ReconciliationSink:
    return ReconciliationSink(CountAggregator.merge, instance_id=instance_id)


def _duplicator(instance_id: int) -> StatelessOperator:
    return StatelessOperator(
        lambda message: [
            Message(message.timestamp, message.key, 1),
            Message(message.timestamp, f"{message.key}+", 2),
        ],
        instance_id=instance_id,
    )


def _single_stage(scheme: str) -> Topology:
    topology = Topology("count")
    topology.add_vertex("count", CountAggregator, parallelism=6)
    topology.set_source("count", scheme=scheme)
    return topology


def _multi_stage(scheme: str) -> Topology:
    """The Figure 17 shape: map → windowed counts → rekey → reconcile."""
    return (
        Topology("two-level")
        .add_vertex("split", _splitter, parallelism=3)
        .add_vertex("aggregate", _windowed, parallelism=8)
        .add_vertex("rekey", _rekeyer, parallelism=2)
        .add_vertex("reconcile", _sink, parallelism=4)
        .set_source("split", scheme="SG")
        .add_edge("split", "aggregate", scheme=scheme)
        .add_edge("aggregate", "rekey", scheme="SG")
        .add_edge("rekey", "reconcile", scheme="KG")
    )


def _diamond(scheme: str) -> Topology:
    """Fan-out then fan-in: exercises the order-key merge path."""
    return (
        Topology("diamond")
        .add_vertex("dup", _duplicator, parallelism=2)
        .add_vertex("left", _splitter, parallelism=3)
        .add_vertex("right", _splitter, parallelism=2)
        .add_vertex("join", CountAggregator, parallelism=5)
        .set_source("dup", scheme="SG")
        .add_edge("dup", "left", scheme=scheme)
        .add_edge("dup", "right", scheme="SG")
        .add_edge("left", "join", scheme="PKG")
        .add_edge("right", "join", scheme=scheme)
    )


TOPOLOGIES = {
    "single": _single_stage,
    "multi": _multi_stage,
    "diamond": _diamond,
}


def _fingerprint(topology_factory, scheme: str, batch_size: int,
                 num_messages: int = 6_000, num_sources: int = 3,
                 workload=None):
    """Everything a run observably produces, as a comparable value."""
    if workload is None:
        workload = list(ZipfWorkload(1.4, 400, num_messages, seed=9))
    result = run_topology(
        topology_factory(scheme),
        workload,
        seed=5,
        num_external_sources=num_sources,
        mode="scalar" if batch_size == 1 else f"columnar:{batch_size}",
    )
    fingerprint = {"ingested": result.messages_ingested}
    for name, metrics in result.metrics.items():
        fingerprint[name] = (
            metrics.messages,
            tuple(metrics.instance_loads),
            tuple(metrics.state_sizes),
            metrics.imbalance,
        )
    for name, instances in result.instances.items():
        states = []
        for instance in instances:
            state = getattr(instance, "partial_state", None)
            if state is not None:
                states.append(tuple(sorted(state().items())))
        fingerprint[f"{name}-state"] = tuple(states)
    return fingerprint


class TestBatchedTopologyMatchesScalar:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("shape", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("batch_size", [7, 1024])
    def test_metrics_identical_across_schemes_and_shapes(
        self, scheme, shape, batch_size
    ):
        factory = TOPOLOGIES[shape]
        scalar = _fingerprint(factory, scheme, batch_size=1)
        batched = _fingerprint(factory, scheme, batch_size=batch_size)
        assert batched == scalar

    def test_batch_size_larger_than_stream(self):
        scalar = _fingerprint(_multi_stage, "D-C", batch_size=1,
                              num_messages=500)
        batched = _fingerprint(_multi_stage, "D-C", batch_size=10_000,
                               num_messages=500)
        assert batched == scalar

    def test_single_external_source(self):
        scalar = _fingerprint(_multi_stage, "W-C", batch_size=1,
                              num_sources=1)
        batched = _fingerprint(_multi_stage, "W-C", batch_size=513,
                               num_sources=1)
        assert batched == scalar

    def test_reconciled_counts_are_exact_under_batching(self):
        workload = list(ZipfWorkload(1.6, 200, 8_000, seed=3))
        result = run_topology(
            _single_stage("D-C"), workload, seed=2,
            num_external_sources=4, mode="columnar:256",
        )
        from collections import Counter

        from repro.operators.reconciliation import reconcile

        merged, _ = reconcile(result.instances["count"], CountAggregator.merge)
        assert merged == dict(Counter(workload))

    @given(
        scheme=st.sampled_from(SCHEMES),
        shape=st.sampled_from(sorted(TOPOLOGIES)),
        batch_size=st.integers(min_value=2, max_value=300),
        num_messages=st.integers(min_value=1, max_value=600),
        num_sources=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_batch_sizes_and_stream_lengths(
        self, scheme, shape, batch_size, num_messages, num_sources
    ):
        factory = TOPOLOGIES[shape]
        scalar = _fingerprint(
            factory, scheme, batch_size=1,
            num_messages=num_messages, num_sources=num_sources,
        )
        batched = _fingerprint(
            factory, scheme, batch_size=batch_size,
            num_messages=num_messages, num_sources=num_sources,
        )
        assert batched == scalar


def _string_keys() -> list[str]:
    return [f"word-{rank}" for rank in ZipfWorkload(1.4, 400, 4_000, seed=9)]


def _messages() -> list[Message]:
    # Timestamps of their own (they drive the tumbling windows) and a
    # payload: the micro-batched loop must carry both, not rebuild them.
    return [
        Message(timestamp=3.0 * index, key=key, value=index % 5)
        for index, key in enumerate(_string_keys())
    ]


def _mixed() -> list:
    return [
        raw if index % 3 else raw.key for index, raw in enumerate(_messages())
    ]


class TestChunkContentsPickTheRepresentation:
    """One micro-batched loop: a chunk of plain keys travels as interned
    ids, a chunk holding ``Message`` objects keeps them beside the ids."""

    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "AD"])
    @pytest.mark.parametrize("shape", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("contents", [_string_keys, _messages, _mixed])
    @pytest.mark.parametrize("batch_size", [7, 512])
    def test_lists_of_keys_and_messages_match_the_scalar_oracle(
        self, scheme, shape, contents, batch_size
    ):
        factory = TOPOLOGIES[shape]
        scalar = _fingerprint(factory, scheme, batch_size=1, workload=contents())
        batched = _fingerprint(
            factory, scheme, batch_size=batch_size, workload=contents()
        )
        assert batched == scalar

    def test_a_key_list_equals_its_workload(self):
        workload = ZipfWorkload(1.4, 400, 5_000, seed=9)
        native = _fingerprint(_multi_stage, "W-C", 256, workload=workload)
        listed = _fingerprint(_multi_stage, "W-C", 256, workload=list(workload))
        assert native == listed
