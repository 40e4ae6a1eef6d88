"""Unit tests for the d-solver (Proposition 4.1 / FINDOPTIMALCHOICES)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import theta_range
from repro.analysis.choices import (
    ChoicesSolution,
    all_constraints_satisfied,
    expected_worker_set_size,
    find_optimal_choices,
    lower_bound_choices,
    minimal_feasible_choices_empirical,
    prefix_constraint_satisfied,
)
from repro.analysis.head import head_cardinality
from repro.analysis.zipf import ZipfDistribution
from repro.exceptions import AnalysisError


class TestExpectedWorkerSetSize:
    def test_matches_appendix_formula(self):
        n, d, h = 50, 4, 3
        expected = n - n * ((n - 1) / n) ** (h * d)
        assert expected_worker_set_size(n, d, h) == pytest.approx(expected)

    def test_zero_choices_gives_zero(self):
        assert expected_worker_set_size(10, 0, 1) == 0.0

    def test_monotone_in_d(self):
        sizes = [expected_worker_set_size(20, d, 1) for d in range(0, 40)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_monotone_in_prefix_length(self):
        sizes = [expected_worker_set_size(20, 3, h) for h in range(0, 20)]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_bounded_by_n(self):
        assert expected_worker_set_size(10, 100, 100) <= 10.0

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            expected_worker_set_size(0, 1)
        with pytest.raises(AnalysisError):
            expected_worker_set_size(10, -1)
        with pytest.raises(AnalysisError):
            expected_worker_set_size(10, 1, -1)


class TestPrefixConstraint:
    def test_constraint_relaxes_with_d(self):
        head = [0.3, 0.1]
        tail = 0.6
        n = 20
        satisfied = [
            prefix_constraint_satisfied(head, tail, n, d, prefix_length=1)
            for d in range(2, n)
        ]
        # once satisfied, staying satisfied as d grows (monotone feasibility)
        first_true = satisfied.index(True)
        assert all(satisfied[first_true:])

    def test_prefix_length_validated(self):
        with pytest.raises(AnalysisError):
            prefix_constraint_satisfied([0.5], 0.5, 10, 2, prefix_length=2)
        with pytest.raises(AnalysisError):
            prefix_constraint_satisfied([0.5], 0.5, 10, 2, prefix_length=0)

    def test_all_constraints_iterates_every_prefix(self):
        head = [0.2, 0.15, 0.1]
        assert all_constraints_satisfied(head, 0.55, 50, 20) in (True, False)


class TestLowerBound:
    def test_formula(self):
        assert lower_bound_choices(0.35, 10) == 4

    def test_minimum_is_two(self):
        assert lower_bound_choices(0.01, 10) == 2

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            lower_bound_choices(1.5, 10)
        with pytest.raises(AnalysisError):
            lower_bound_choices(0.5, 0)


class TestFindOptimalChoices:
    def test_empty_head_gives_two(self):
        solution = find_optimal_choices([], 1.0, 50)
        assert solution.num_choices == 2
        assert not solution.use_w_choices
        assert solution.head_cardinality == 0

    def test_returns_at_least_lower_bound(self):
        solution = find_optimal_choices([0.4, 0.1], 0.5, 20)
        assert solution.num_choices >= lower_bound_choices(0.4, 20)

    def test_solution_satisfies_all_constraints(self):
        dist = ZipfDistribution(1.4, 10_000)
        n = 50
        theta = theta_range(n).default
        head_size = head_cardinality(dist, theta)
        head = dist.probabilities[:head_size]
        tail = dist.tail_mass(head_size)
        solution = find_optimal_choices(head, tail, n)
        if not solution.use_w_choices:
            assert all_constraints_satisfied(head, tail, n, solution.num_choices)

    def test_minimality_of_solution(self):
        dist = ZipfDistribution(1.2, 10_000)
        n = 50
        theta = theta_range(n).default
        head_size = head_cardinality(dist, theta)
        head = dist.probabilities[:head_size]
        tail = dist.tail_mass(head_size)
        solution = find_optimal_choices(head, tail, n)
        if not solution.use_w_choices and solution.num_choices > lower_bound_choices(head[0], n):
            assert not all_constraints_satisfied(
                head, tail, n, solution.num_choices - 1
            )

    def test_single_dominant_key_switches_to_wchoices(self):
        solution = find_optimal_choices([0.95], 0.05, 20)
        assert solution.use_w_choices
        assert solution.num_choices == 20

    def test_d_grows_with_skew(self):
        n = 100
        theta = theta_range(n).default
        d_values = []
        for skew in (0.8, 1.4, 2.0):
            dist = ZipfDistribution(skew, 10_000)
            head_size = head_cardinality(dist, theta)
            head = dist.probabilities[:head_size]
            tail = dist.tail_mass(head_size)
            d_values.append(find_optimal_choices(head, tail, n).num_choices)
        assert d_values[0] <= d_values[1] <= d_values[2]

    def test_d_less_than_n_at_scale(self):
        # Figure 4: at n = 100, D-C should not need every worker even at
        # z = 2.0.
        n = 100
        theta = theta_range(n).default
        dist = ZipfDistribution(2.0, 10_000)
        head_size = head_cardinality(dist, theta)
        head = dist.probabilities[:head_size]
        tail = dist.tail_mass(head_size)
        solution = find_optimal_choices(head, tail, n)
        assert solution.num_choices < n

    def test_unsorted_head_is_sorted_internally(self):
        unsorted = find_optimal_choices([0.1, 0.4], 0.5, 20)
        sorted_head = find_optimal_choices([0.4, 0.1], 0.5, 20)
        assert unsorted.num_choices == sorted_head.num_choices

    def test_cost_property(self):
        solution = find_optimal_choices([0.3, 0.2], 0.5, 30)
        assert solution.cost == solution.num_choices * 2

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            find_optimal_choices([0.5], 0.5, 0)
        with pytest.raises(AnalysisError):
            find_optimal_choices([0.5], -0.1, 10)
        with pytest.raises(AnalysisError):
            find_optimal_choices([-0.5], 0.5, 10)
        with pytest.raises(AnalysisError):
            find_optimal_choices([0.5], 0.5, 10, epsilon=-1.0)


def _reference_scan(head, tail_mass, num_workers, epsilon):
    """FINDOPTIMALCHOICES as the paper states it: the first d, scanning up
    from the lower bound, whose every prefix constraint holds — each one
    evaluated from scratch by the readable reference predicates."""
    if not head:
        return ChoicesSolution(num_choices=2, use_w_choices=False, head_cardinality=0)
    for d in range(lower_bound_choices(head[0], num_workers), num_workers):
        if all_constraints_satisfied(head, tail_mass, num_workers, d, epsilon):
            return ChoicesSolution(
                num_choices=d, use_w_choices=False, head_cardinality=len(head)
            )
    return ChoicesSolution(
        num_choices=num_workers, use_w_choices=True, head_cardinality=len(head)
    )


class TestFastScanEqualsReference:
    """``find_optimal_choices`` takes the head sums once per solve; it must
    still return what the per-(h, d) reference returns, to the last bit of
    every comparison — a different d would change routing."""

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 5_000), max_size=60),
        tail_count=st.integers(0, 50_000),
        num_workers=st.sampled_from([2, 8, 50, 100]),
        epsilon=st.sampled_from([0.0, 1e-4, 1e-2]),
    )
    def test_sketch_shaped_heads(self, counts, tail_count, num_workers, epsilon):
        # What D-Choices feeds the solver: sorted counts over the total.
        total = sum(counts) + tail_count
        head = [count / total for count in sorted(counts, reverse=True)]
        tail_mass = max(0.0, 1.0 - sum(head))
        assert find_optimal_choices(
            head, tail_mass, num_workers, epsilon
        ) == _reference_scan(head, tail_mass, num_workers, epsilon)

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40),
        head_mass=st.floats(0.0, 1.0, allow_nan=False),
        num_workers=st.sampled_from([2, 8, 50, 100]),
        epsilon=st.sampled_from([0.0, 1e-4, 1e-2]),
    )
    def test_arbitrary_heads(self, weights, head_mass, num_workers, epsilon):
        scale = head_mass / (sum(weights) or 1.0)
        head = sorted((min(1.0, weight * scale) for weight in weights), reverse=True)
        tail_mass = max(0.0, 1.0 - sum(head))
        assert find_optimal_choices(
            head, tail_mass, num_workers, epsilon
        ) == _reference_scan(head, tail_mass, num_workers, epsilon)

    @pytest.mark.parametrize("num_workers", [2, 8, 50, 100])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-4, 1e-2])
    def test_constraints_met_with_equality(self, num_workers, epsilon):
        # Uniform heads of mass exactly 1 put prefixes on the boundary
        # ``lhs == rhs`` when epsilon is 0 — where a re-ordered sum flips d.
        for size in (1, 2, num_workers, 2 * num_workers):
            head = [1.0 / size] * size
            assert find_optimal_choices(
                head, 0.0, num_workers, epsilon
            ) == _reference_scan(head, 0.0, num_workers, epsilon)


class TestEmpiricalMinimum:
    def test_picks_smallest_feasible(self):
        data = [(2, 0.5), (3, 0.2), (4, 0.05), (5, 0.04)]
        assert minimal_feasible_choices_empirical(data, 0.1) == 4

    def test_none_when_nothing_feasible(self):
        assert minimal_feasible_choices_empirical([(2, 0.5)], 0.1) is None
