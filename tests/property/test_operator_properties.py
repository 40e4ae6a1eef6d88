"""Property-based tests for the operator substrate.

The head/tail groupings only make sense for stateful operators if splitting a
key's state across instances never changes the final answer.  These tests
verify that invariant for the count aggregator: processing a stream split
across any number of instances, in any interleaving, and reconciling the
partial states gives exactly the same result as processing the whole stream
on one instance.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.aggregations import CountAggregator
from repro.operators.reconciliation import aggregation_cost, reconcile
from repro.operators.windows import TumblingWindowAssigner, WindowedAggregator
from repro.types import Message

keys = st.integers(min_value=0, max_value=10)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
streams = st.lists(st.tuples(keys, values), min_size=1, max_size=200)
instance_counts = st.integers(min_value=1, max_value=6)


def _split(stream, num_instances, assignment_seed):
    """Deterministically spread the stream over ``num_instances`` instances."""
    buckets = [[] for _ in range(num_instances)]
    for index, item in enumerate(stream):
        buckets[(index * 31 + assignment_seed) % num_instances].append(item)
    return buckets


class TestSplitStateEquivalence:
    @given(stream=streams, num_instances=instance_counts, seed=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_count_reconciles_exactly(self, stream, num_instances, seed):
        instances = [CountAggregator(i) for i in range(num_instances)]
        for bucket, instance in zip(_split(stream, num_instances, seed), instances):
            for key, _ in bucket:
                instance.update(key, None)
        merged, cost = reconcile(instances, CountAggregator.merge)
        exact = Counter(key for key, _ in stream)
        assert merged == dict(exact)
        assert cost.max_replication <= num_instances

    @given(stream=streams, num_instances=instance_counts, seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_aggregation_cost_invariants(self, stream, num_instances, seed):
        instances = [CountAggregator(i) for i in range(num_instances)]
        for bucket, instance in zip(_split(stream, num_instances, seed), instances):
            for key, _ in bucket:
                instance.update(key, None)
        cost = aggregation_cost([instance.partial_state() for instance in instances])
        distinct = len({key for key, _ in stream})
        assert cost.distinct_keys == distinct
        assert distinct <= cost.total_entries <= distinct * num_instances
        assert 1 <= cost.max_replication <= num_instances


class TestWindowProperties:
    @given(
        timestamps=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=150,
        ),
        size=st.floats(min_value=0.5, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_tumbling_assignment_contains_timestamp(self, timestamps, size):
        assigner = TumblingWindowAssigner(size=size)
        for timestamp in timestamps:
            (start,) = assigner.assign(timestamp)
            assert start <= timestamp < assigner.window_end(start) + 1e-9

    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False), keys
            ),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_windowed_counts_conserve_messages(self, events):
        aggregator = WindowedAggregator(
            assigner=TumblingWindowAssigner(size=10.0),
            fold=lambda accumulator, value: accumulator + 1,
            initializer=int,
        )
        emitted = []
        for timestamp, key in events:
            emitted.extend(aggregator.process(Message(timestamp, key)))
        emitted.extend(aggregator.flush())
        # every message is counted in exactly one tumbling window
        total = sum(message.value[1] for message in emitted)
        assert total == len(events)
        assert aggregator.state_size() == 0
