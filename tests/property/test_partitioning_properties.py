"""Property-based tests for the grouping schemes and the analysis."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.choices import (
    expected_worker_set_size,
    find_optimal_choices,
    lower_bound_choices,
)
from repro.analysis.zipf import ZipfDistribution
from repro.partitioning.registry import create_partitioner
from repro.simulation.metrics import LoadTracker

worker_counts = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**31)
key_streams = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=300
)


class TestRoutingRangeProperties:
    @given(
        scheme=st.sampled_from(["KG", "SG", "PKG", "D-C", "W-C", "RR"]),
        num_workers=worker_counts,
        seed=seeds,
        stream=key_streams,
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_always_in_range_and_accounted(self, scheme, num_workers, seed, stream):
        partitioner = create_partitioner(scheme, num_workers=num_workers, seed=seed)
        for key in stream:
            worker = partitioner.route(key)
            assert 0 <= worker < num_workers
        assert partitioner.messages_routed == len(stream)
        assert sum(partitioner.local_loads) == len(stream)

    @given(num_workers=st.integers(min_value=2, max_value=40), seed=seeds, stream=key_streams)
    @settings(max_examples=60, deadline=None)
    def test_pkg_key_uses_at_most_two_workers(self, num_workers, seed, stream):
        partitioner = create_partitioner("PKG", num_workers=num_workers, seed=seed)
        destinations: dict[int, set[int]] = {}
        for key in stream:
            destinations.setdefault(key, set()).add(partitioner.route(key))
        assert all(len(workers) <= 2 for workers in destinations.values())

    @given(num_workers=worker_counts, seed=seeds, stream=key_streams)
    @settings(max_examples=60, deadline=None)
    def test_kg_is_sticky(self, num_workers, seed, stream):
        partitioner = create_partitioner("KG", num_workers=num_workers, seed=seed)
        destinations: dict[int, set[int]] = {}
        for key in stream:
            destinations.setdefault(key, set()).add(partitioner.route(key))
        assert all(len(workers) == 1 for workers in destinations.values())

    @given(num_workers=worker_counts, stream=key_streams)
    @settings(max_examples=60, deadline=None)
    def test_shuffle_imbalance_is_minimal(self, num_workers, stream):
        partitioner = create_partitioner("SG", num_workers=num_workers, seed=0)
        tracker = LoadTracker(num_workers)
        for key in stream:
            tracker.record(partitioner.route(key))
        loads = tracker.loads
        assert max(loads) - min(loads) <= 1


class TestImbalanceMetricProperties:
    @given(
        assignments=st.lists(
            st.integers(min_value=0, max_value=9), min_size=1, max_size=500
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_imbalance_in_valid_range(self, assignments):
        tracker = LoadTracker(10)
        for worker in assignments:
            tracker.record(worker)
        imbalance = tracker.imbalance()
        assert 0.0 <= imbalance <= 1.0 - 1.0 / 10
        assert sum(tracker.loads) == tracker.total_messages == len(assignments)


class TestAnalysisProperties:
    @given(
        num_workers=st.integers(min_value=2, max_value=200),
        num_choices=st.integers(min_value=0, max_value=300),
        prefix=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_expected_worker_set_size_bounds(self, num_workers, num_choices, prefix):
        value = expected_worker_set_size(num_workers, num_choices, prefix)
        assert 0.0 <= value <= num_workers
        if num_choices > 0 and prefix > 0:
            assert value >= 1.0 - 1e-9

    @given(
        exponent=st.floats(min_value=0.1, max_value=2.5),
        num_workers=st.integers(min_value=2, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_find_optimal_choices_within_bounds(self, exponent, num_workers):
        distribution = ZipfDistribution(exponent, 2000)
        theta = 1.0 / (5.0 * num_workers)
        head_size = distribution.keys_above(theta)
        head = distribution.probabilities[:head_size]
        tail = distribution.tail_mass(head_size)
        solution = find_optimal_choices(head, tail, num_workers)
        assert 2 <= solution.num_choices <= num_workers
        if head_size:
            assert solution.num_choices >= min(
                num_workers, lower_bound_choices(float(head[0]), num_workers)
            )
        assert solution.head_cardinality == head_size

    @given(
        probabilities=st.lists(
            st.floats(min_value=0.001, max_value=0.3), min_size=1, max_size=8
        ),
        num_workers=st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_solver_monotone_feasibility(self, probabilities, num_workers):
        head = sorted(probabilities, reverse=True)
        total = sum(head)
        if total > 0.99:
            head = [p * 0.99 / total for p in head]
        tail = 1.0 - sum(head)
        solution = find_optimal_choices(head, tail, num_workers)
        # feasible solutions never exceed n; cost is consistent
        assert solution.num_choices <= num_workers
        assert solution.cost == solution.num_choices * len(head)
