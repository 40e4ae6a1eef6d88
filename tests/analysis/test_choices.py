"""Unit tests for the d-solver (Proposition 4.1 / FINDOPTIMALCHOICES)."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive.tuner import ParameterTuner
from repro.analysis import choices
from repro.analysis.bounds import theta_range
from repro.analysis.choices import (
    ChoicesSolution,
    all_constraints_satisfied,
    expected_worker_set_size,
    find_optimal_choices,
    head_masses,
    lower_bound_choices,
    minimal_feasible_choices_empirical,
    prefix_constraint_satisfied,
)
from repro.analysis.head import head_cardinality
from repro.analysis.zipf import ZipfDistribution
from repro.exceptions import AnalysisError
from repro.fifo_map import FifoMap
from repro.partitioning.d_choices import DChoices


class TestExpectedWorkerSetSize:
    def test_matches_appendix_formula(self):
        n, d, h = 50, 4, 3
        expected = n - n * ((n - 1) / n) ** (h * d)
        assert expected_worker_set_size(n, d, h) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_one_choice_hits_one_worker(self, n):
        assert expected_worker_set_size(n, 1, 1) == pytest.approx(1.0)

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
    """``find_optimal_choices`` takes the head sums once per solve and keeps
    the d-only terms across solves; it must still return what the per-(h, d)
    reference (``math.fsum`` of both slices) returns, to the last bit of
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
        tail_mass = max(0.0, 1.0 - math.fsum(head))
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
        tail_mass = max(0.0, 1.0 - math.fsum(head))
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


    def test_a_small_or_cold_terms_cache_changes_nothing(self, monkeypatch):
        # Evicting a (n, epsilon, d) triple mid-scan, or finding one grown by
        # a shorter head, must give the same d as a fresh derivation.
        monkeypatch.setattr(choices, "_TERMS", FifoMap(2))
        for size in (3, 40, 7, 90, 1):
            counts = [1 + (index % 3) for index in range(size)]
            total = sum(counts) + size
            head = [count / total for count in sorted(counts, reverse=True)]
            tail_mass = max(0.0, 1.0 - math.fsum(head))
            for num_workers in (8, 50):
                assert find_optimal_choices(
                    head, tail_mass, num_workers, 0.0
                ) == _reference_scan(head, tail_mass, num_workers, 0.0)

    def test_terms_grow_only_as_far_as_a_scan_reaches(self, monkeypatch):
        monkeypatch.setattr(choices, "_TERMS", FifoMap(64))
        head = [0.4, 0.3, 0.2, 0.1]
        solution = find_optimal_choices(head, 0.0, 10, 0.0)
        assert solution == _reference_scan(head, 0.0, 10, 0.0)
        for (num_workers, epsilon, candidate), terms in choices._TERMS.items():
            reached = next(
                (
                    length
                    for length in range(1, len(head) + 1)
                    if not prefix_constraint_satisfied(
                        head, 0.0, num_workers, candidate, length, epsilon
                    )
                ),
                len(head),
            )
            assert [len(column) for column in terms] == [reached] * 3


def _bits(values):
    return [struct.pack("<d", value) for value in values]


def _assert_fsum_of_both_slices(head):
    prefix_masses, rests_of_head = head_masses(head)
    lengths = range(1, len(head) + 1)
    assert _bits(prefix_masses) == _bits(math.fsum(head[:h]) for h in lengths)
    assert _bits(rests_of_head) == _bits(math.fsum(head[h:]) for h in lengths)


#: Non-negative floats across the whole range a head mass can take: zeros,
#: subnormals, one, and everything between.
_MASSES = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(5e-324),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-300),
)


class TestHeadMasses:
    """The one-pass head sums are ``math.fsum`` of both slices, bit for bit —
    the same float whatever the interpreter's builtin ``sum`` does."""

    @settings(max_examples=300, deadline=None)
    @given(head=st.lists(_MASSES, max_size=60))
    @example(head=[1.0, 2.225073858507203e-309])
    @example(head=[1.0, 5e-324, 0.0])
    @example(head=[1.0 / 46] * 46)
    def test_equal_fsum_of_both_slices(self, head):
        _assert_fsum_of_both_slices(head)

    @settings(max_examples=150, deadline=None)
    @given(counts=st.lists(st.integers(1, 5_000), min_size=1, max_size=60),
           tail_count=st.integers(0, 50_000))
    def test_equal_fsum_on_sketch_shaped_heads(self, counts, tail_count):
        total = sum(counts) + tail_count
        _assert_fsum_of_both_slices(
            [count / total for count in sorted(counts, reverse=True)]
        )

    def test_all_zero_head(self):
        assert head_masses([0.0, 0.0]) == ([0.0, 0.0], [0.0, 0.0])


class _FixedHead:
    """A sketch stand-in that reports a fixed head and total."""

    def __init__(self, counts, total):
        self.counts = counts
        self.total = total

    def head_counts(self, theta):
        return list(self.counts)


#: ``(count, multiplicity) pairs, total, n, epsilon -> d, use_w_choices``,
#: the same on CPython 3.10-3.13.  The first twelve are uniform heads at
#: epsilon = 0, whose prefixes meet their constraint with equality: with
#: builtin ``sum`` they gave W-C (or d = 7 at k = 53) on 3.11 and the values
#: below on 3.12.  The rest are heads D-C's sketches held at solves on the
#: stream digest's workloads (``zipf-0.8-1e6`` at n = 100 early on, when
#: every monitored key is head; ``zipf-1.4-1e4`` and ``wikipedia-like`` at
#: n = 50), plus three W-C / small-n cases.
GOLDEN_SOLUTIONS = [
    (((1, 46),), 46, 8, 0.0, 7, False),
    (((1, 47),), 47, 8, 0.0, 7, False),
    (((1, 48),), 48, 8, 0.0, 7, False),
    (((1, 49),), 49, 8, 0.0, 7, False),
    (((1, 50),), 50, 8, 0.0, 7, False),
    (((1, 51),), 51, 8, 0.0, 7, False),
    (((1, 52),), 52, 8, 0.0, 7, False),
    (((1, 53),), 53, 8, 0.0, 6, False),
    (((1, 54),), 54, 8, 0.0, 6, False),
    (((1, 55),), 55, 8, 0.0, 6, False),
    (((1, 56),), 56, 8, 0.0, 6, False),
    (((1, 57),), 57, 8, 0.0, 6, False),
    (((19, 1), (17, 1), (10, 1), (9, 1), (8, 2), (6, 1), (5, 1)), 2177, 100, 1e-4, 2, False),
    (((18, 1), (10, 1), (9, 2), (4, 3), (3, 5)), 1137, 100, 1e-4, 2, False),
    (((14, 1), (5, 1), (4, 1), (3, 1), (2, 19)), 703, 100, 1e-4, 3, False),
    (((14, 1), (5, 1), (4, 1), (3, 1), (2, 19)), 703, 100, 0.0, 3, False),
    (((7, 1), (2, 3), (1, 287)), 300, 100, 1e-4, 3, False),
    (((8, 1), (3, 2), (2, 9), (1, 468)), 500, 100, 1e-4, 2, False),
    (((8, 1), (3, 2), (2, 9), (1, 468)), 500, 100, 0.0, 9, False),
    (((8, 1), (3, 2), (2, 9), (1, 468)), 500, 100, 1e-2, 2, False),
    (((8, 1), (3, 2), (2, 9), (1, 468)), 500, 8, 1e-4, 2, False),
    (
        (
            (364, 1), (164, 1), (60, 1), (48, 1), (29, 1), (28, 1), (21, 1), (19, 1),
            (17, 1), (14, 1), (12, 1), (9, 2), (8, 2), (7, 1), (6, 5), (5, 2),
        ),
        1103, 50, 1e-4, 22, False,
    ),
    (((32, 1), (16, 1), (5, 1), (4, 1), (3, 3), (2, 3), (1, 28)), 100, 50, 1e-4, 19, False),
    (((32, 1), (16, 1), (5, 1), (4, 1), (3, 3), (2, 3), (1, 28)), 100, 50, 0.0, 49, False),
    (
        (
            (59, 1), (22, 1), (17, 1), (11, 1), (10, 3), (9, 1), (7, 1), (6, 4),
            (5, 5), (4, 6), (3, 12),
        ),
        703, 50, 1e-4, 5, False,
    ),
    (((7, 1), (3, 2), (2, 5), (1, 77)), 100, 50, 1e-4, 4, False),
    (((95, 1),), 100, 20, 1e-4, 20, True),
    (((3, 2), (1, 4)), 10, 2, 1e-4, 2, True),
    (((40, 1), (20, 2)), 100, 8, 1e-2, 6, False),
]


class TestGoldenSolutions:
    """What D-C and AD's tuner choose for fixed heads, pinned as constants so
    every interpreter of the CI matrix must reproduce them."""

    @pytest.mark.parametrize(
        "pairs, total, num_workers, epsilon, expected_d, expected_w_choices",
        GOLDEN_SOLUTIONS,
    )
    def test_d_choices_and_the_tuner(
        self, pairs, total, num_workers, epsilon, expected_d, expected_w_choices
    ):
        counts = [count for count, times in pairs for _ in range(times)]
        sketch = _FixedHead(counts, total)
        scheme = DChoices(num_workers=num_workers, epsilon=epsilon)
        scheme._sketch = sketch
        expected = ChoicesSolution(
            num_choices=expected_d,
            use_w_choices=expected_w_choices,
            head_cardinality=len(counts),
        )
        assert scheme._find_optimal_choices() == expected
        tuner = ParameterTuner(epsilon=epsilon)
        assert tuner.propose_choices(sketch, 0.0, num_workers) == expected


class TestEmpiricalMinimum:
    def test_picks_smallest_feasible(self):
        data = [(2, 0.5), (3, 0.2), (4, 0.05), (5, 0.04)]
        assert minimal_feasible_choices_empirical(data, 0.1) == 4

    def test_none_when_nothing_feasible(self):
        assert minimal_feasible_choices_empirical([(2, 0.5)], 0.1) is None
