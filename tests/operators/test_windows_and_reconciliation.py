"""Unit tests for the window assigner, windowed aggregation and reconciliation."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.operators.aggregations import CountAggregator
from repro.operators.reconciliation import (
    ReconciliationSink,
    aggregation_cost,
    merge_partial_states,
    reconcile,
)
from repro.operators.windows import TumblingWindowAssigner, WindowedAggregator
from repro.types import Message


class TestTumblingWindowAssigner:
    def test_assign(self):
        assigner = TumblingWindowAssigner(size=10.0)
        assert assigner.assign(0.0) == (0.0,)
        assert assigner.assign(9.99) == (0.0,)
        assert assigner.assign(10.0) == (10.0,)
        assert assigner.assign(23.0) == (20.0,)

    def test_window_end(self):
        assigner = TumblingWindowAssigner(size=5.0)
        assert assigner.window_end(10.0) == 15.0

    @pytest.mark.parametrize(
        "size, timestamp, start",
        [
            (10.0, 0.0, 0.0),
            (10.0, 10.0, 10.0),
            (10.0, -0.5, -10.0),
            (10.0, -10.0, -10.0),
            (2.5, 7.4, 5.0),
            (2.5, 7.5, 7.5),
            (0.25, 1.0, 1.0),
            (32.0, 1e6 - 1.0, 999_968.0),
        ],
    )
    def test_assign_table(self, size, timestamp, start):
        assigner = TumblingWindowAssigner(size=size)
        assert assigner.assign(timestamp) == (start,)
        assert assigner.window_end(start) == start + size

    @given(
        st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0, 32.0]),
        st.integers(-(10**6), 10**6).map(lambda quarter: quarter / 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_holds_its_timestamp(self, size, timestamp):
        assigner = TumblingWindowAssigner(size=size)
        (start,) = assigner.assign(timestamp)
        assert start <= timestamp < assigner.window_end(start)

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            TumblingWindowAssigner(size=0.0)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            TumblingWindowAssigner(size=-5.0)


class TestWindowedAggregator:
    def _build(self, lateness=0.0):
        return WindowedAggregator(
            assigner=TumblingWindowAssigner(size=10.0),
            fold=lambda accumulator, value: accumulator + 1,
            initializer=int,
            allowed_lateness=lateness,
        )

    def test_accumulates_per_window_and_key(self):
        aggregator = self._build()
        for timestamp, key in [(1.0, "a"), (2.0, "a"), (3.0, "b")]:
            list(aggregator.process(Message(timestamp, key)))
        windows = aggregator.results_by_window()
        assert windows[0.0] == {"a": 2, "b": 1}

    def test_closes_windows_when_watermark_passes(self):
        aggregator = self._build()
        list(aggregator.process(Message(1.0, "a")))
        emitted = list(aggregator.process(Message(15.0, "a")))
        assert len(emitted) == 1
        closed = emitted[0]
        assert closed.key == "a"
        assert closed.value == (0.0, 1)
        assert closed.timestamp == 10.0

    def test_allowed_lateness_delays_closing(self):
        aggregator = self._build(lateness=10.0)
        list(aggregator.process(Message(1.0, "a")))
        assert list(aggregator.process(Message(15.0, "a"))) == []
        assert list(aggregator.process(Message(25.0, "a"))) != []

    def test_flush_emits_open_windows(self):
        aggregator = self._build()
        list(aggregator.process(Message(1.0, "a")))
        list(aggregator.process(Message(2.0, "b")))
        flushed = aggregator.flush()
        assert len(flushed) == 2
        assert aggregator.state_size() == 0

    def test_watermark_tracks_maximum(self):
        aggregator = self._build()
        list(aggregator.process(Message(5.0, "a")))
        list(aggregator.process(Message(3.0, "a")))
        assert aggregator.watermark == 5.0

    def test_rejects_negative_lateness(self):
        with pytest.raises(ConfigurationError):
            self._build(lateness=-1.0)


class TestReconciliation:
    def test_merge_partial_states(self):
        merged = merge_partial_states(
            [{"a": 2, "b": 1}, {"a": 3, "c": 4}], merge=lambda x, y: x + y
        )
        assert merged == {"a": 5, "b": 1, "c": 4}

    def test_merge_empty(self):
        assert merge_partial_states([], merge=lambda x, y: x + y) == {}

    def test_aggregation_cost(self):
        cost = aggregation_cost([{"a": 1, "b": 1}, {"a": 1}, {"a": 1}])
        assert cost.total_entries == 4
        assert cost.distinct_keys == 2
        assert cost.max_replication == 3
        assert cost.average_replication == pytest.approx(2.0)

    def test_aggregation_cost_empty(self):
        cost = aggregation_cost([])
        assert cost.total_entries == 0
        assert cost.average_replication == 0.0

    def test_reconcile_counts(self):
        left, right = CountAggregator(0), CountAggregator(1)
        for key in ["a", "a", "b"]:
            left.update(key, None)
        for key in ["a", "c"]:
            right.update(key, None)
        merged, cost = reconcile([left, right], CountAggregator.merge)
        assert merged == {"a": 3, "b": 1, "c": 1}
        assert cost.max_replication == 2

    def test_reconcile_sums(self):
        left, right = ReconciliationSink(operator.add, 0), ReconciliationSink(operator.add, 1)
        left.update("a", 1.5)
        right.update("a", 2.5)
        right.update("b", 0.25)
        merged, cost = reconcile([left, right], operator.add)
        assert merged == {"a": 4.0, "b": 0.25}
        assert cost.total_entries == 3

    def test_reconcile_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            reconcile([], CountAggregator.merge)
