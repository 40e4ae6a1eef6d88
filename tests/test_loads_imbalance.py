"""The paper's imbalance ``I(m)``, one correctly rounded function.

``max(L) - mean(L)`` over normalised loads used to be written five times as
a float ``sum`` of the normalised loads, and builtin ``sum`` is not the same
function on every interpreter: 3.12 made it compensated.  On
``[3, 3, 1, 2, 0]`` that formula gave 0.13333333333333333 on 3.10 / 3.11 and
0.1333333333333333 on 3.12 / 3.13, on ``[2, 3, 2, 3, 3]`` 0.030769230769230743
and 0.03076923076923077.  ``loads_imbalance`` computes ``(n*max - T) / (n*T)``
from the integer loads with one true division, which Python rounds
correctly, so the golden values below hold on every interpreter the CI
matrix runs.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.runtime import VertexMetrics
from repro.runtime.state import ClusterSnapshot
from repro.simulation.metrics import LoadTracker, WindowedImbalanceSeries
from repro.types import LoadSnapshot, loads_imbalance

#: Vectors on which the float-sum formula gave one value on 3.10 / 3.11
#: (left-to-right ``sum``) and another on 3.12 / 3.13 (compensated ``sum``).
WITNESSES = [
    ([3, 3, 1, 2, 0], 0.13333333333333333),
    ([2, 3, 2, 3, 3], 0.03076923076923077),
    ([5, 5, 3, 6, 4], 0.06086956521739131),
    ([2, 1, 6, 8, 2], 0.22105263157894736),
    ([9, 8, 5, 7, 2, 2, 9, 6], 0.0625),
    ([5, 9, 9, 6, 4, 0, 4, 3], 0.1),
    ([6, 0, 2, 6, 3, 1, 1], 0.17293233082706766),
    ([5, 7, 7, 8, 9, 1, 3, 6], 0.07065217391304347),
]

#: loads -> I(m), each the correctly rounded ``max/T - 1/n``.
GOLDEN = [
    ([], 0.0),
    ([0, 0, 0], 0.0),
    ([7], 0.0),
    ([5, 5, 5, 5], 0.0),
    ([1, 0, 0, 0], 0.75),
    *WITNESSES,
    # Totals past 2**53: the loads are not exact as floats, the ratio is.
    ([2**62, 2**62 - 1, 3], 0.16666666666666666),
    ([(i * i) % 97 for i in range(100)], 0.010596438532503754),
]

#: Non-empty golden rows small enough to route message by message.
ROUTABLE = [row for row in GOLDEN if 0 < sum(row[0]) < 10_000]


def _exact(loads):
    total = sum(loads)
    if not total:
        return 0.0
    return float(Fraction(max(loads), total) - Fraction(1, len(loads)))


@pytest.mark.parametrize("loads, expected", GOLDEN)
def test_golden_values(loads, expected):
    assert loads_imbalance(loads) == expected
    assert loads_imbalance(loads) == _exact(loads)


@given(st.lists(st.integers(0, 2**63), max_size=64))
@settings(max_examples=300, deadline=None)
def test_equals_the_correctly_rounded_value(loads):
    value = loads_imbalance(loads)
    assert value == _exact(loads)
    assert value >= 0.0


@pytest.mark.parametrize("loads, expected", ROUTABLE)
def test_every_substrate_reports_the_same_value(loads, expected):
    tracker = LoadTracker(len(loads))
    series = WindowedImbalanceSeries(interval=sum(loads))
    for _ in range(sum(loads)):  # the first window sets the baseline
        tracker.record(0)
    series.maybe_record(tracker)
    for worker, load in enumerate(loads):
        for _ in range(load):
            tracker.record(worker)
    series.maybe_record(tracker)

    assert series.values == [expected]
    assert LoadSnapshot(time=0.0, loads=loads).imbalance == expected
    assert ClusterSnapshot(0.0, sum(loads), worker_processed=loads).imbalance == expected
    vertex = VertexMetrics("count", len(loads), sum(loads), instance_loads=loads)
    assert vertex.imbalance == expected
    fresh = LoadTracker(len(loads))
    for worker, load in enumerate(loads):
        for _ in range(load):
            fresh.record(worker)
    assert fresh.imbalance() == expected


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _compensated(values):
    # Neumaier's summation, which builtin ``sum`` does for floats from 3.12.
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def _float_sum_formula(loads, summation):
    """The imbalance as every substrate used to compute it."""
    total = sum(loads)
    normalized = [load / total for load in loads]
    return max(0.0, max(normalized) - summation(normalized) / len(normalized))


@pytest.mark.parametrize("loads, expected", WITNESSES)
def test_witnesses_split_the_float_sum_formula(loads, expected):
    assert _float_sum_formula(loads, _left_to_right) != _float_sum_formula(
        loads, _compensated
    )
    assert loads_imbalance(loads) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 64, 1000])
def test_one_hot_is_the_largest_imbalance(n):
    loads = [0] * n
    loads[n // 2] = 3
    assert loads_imbalance(loads) == (n - 1) / n


@given(st.lists(st.integers(0, 10**9), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_within_1e15_of_the_float_sum_formula(loads):
    if not sum(loads):
        return
    value = loads_imbalance(loads)
    assert abs(value - _float_sum_formula(loads, _left_to_right)) <= 1e-15
    assert abs(value - _float_sum_formula(loads, _compensated)) <= 1e-15


@given(st.lists(st.integers(0, 2**40), max_size=32), st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_scaling_every_load_keeps_the_value(loads, factor):
    assert loads_imbalance([load * factor for load in loads]) == loads_imbalance(loads)


@given(
    st.lists(st.integers(0, 2**40), max_size=32).flatmap(
        lambda loads: st.tuples(st.just(loads), st.permutations(loads))
    )
)
@settings(max_examples=200, deadline=None)
def test_worker_order_does_not_matter(pair):
    loads, shuffled = pair
    assert loads_imbalance(shuffled) == loads_imbalance(loads)


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=32))
@settings(max_examples=200, deadline=None)
def test_zero_exactly_when_balanced(loads):
    balanced = len(set(loads)) == 1
    assert (loads_imbalance(loads) == 0.0) == (balanced or not sum(loads))


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=32))
@settings(max_examples=200, deadline=None)
def test_one_more_message_on_the_hottest_worker_never_lowers_it(loads):
    # (max + 1) / (T + 1) >= max / T because T >= max; rounding is monotone.
    hotter = list(loads)
    hotter[loads.index(max(loads))] += 1
    assert loads_imbalance(hotter) >= loads_imbalance(loads)
