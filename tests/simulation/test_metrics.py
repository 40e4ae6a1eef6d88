"""Unit tests for load tracking and the imbalance metric."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.metrics import (
    ImbalanceTimeSeries,
    LoadTracker,
    WindowedImbalanceSeries,
)
from repro.types import LoadSnapshot


class TestLoadTracker:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            LoadTracker(0)

    def test_record_and_loads(self):
        tracker = LoadTracker(3)
        for worker in (0, 1, 1, 2, 2, 2):
            tracker.record(worker)
        assert tracker.loads == [1, 2, 3]
        assert tracker.total_messages == 6

    def test_record_rejects_bad_worker(self):
        tracker = LoadTracker(3)
        with pytest.raises(SimulationError):
            tracker.record(3)
        with pytest.raises(SimulationError):
            tracker.record(-1)

    def test_imbalance_definition(self):
        tracker = LoadTracker(4)
        for worker in (0, 0, 0, 1, 2, 3):
            tracker.record(worker)
        expected = 3 / 6 - 1 / 4
        assert tracker.imbalance() == pytest.approx(expected)

    def test_imbalance_zero_when_balanced(self):
        tracker = LoadTracker(4)
        for worker in range(4):
            tracker.record(worker)
        assert tracker.imbalance() == pytest.approx(0.0)
        assert tracker.imbalance() >= 0.0

    def test_max_load(self):
        tracker = LoadTracker(2)
        tracker.record(0)
        tracker.record(0)
        tracker.record(1)
        assert tracker.max_load() == pytest.approx(2 / 3)

    def test_max_load_empty(self):
        assert LoadTracker(2).max_load() == 0.0

    def test_snapshot(self):
        tracker = LoadTracker(2)
        tracker.record(1)
        snapshot = tracker.snapshot(time=5.0)
        assert isinstance(snapshot, LoadSnapshot)
        assert snapshot.loads == [0, 1]
        assert snapshot.imbalance == pytest.approx(1.0 - 0.5)

    def test_head_tail_split(self):
        tracker = LoadTracker(2, track_head_tail=True)
        tracker.record(0, is_head=True)
        tracker.record(0, is_head=False)
        tracker.record(1, is_head=True)
        head, tail = tracker.head_tail_split()
        assert head == [1, 1]
        assert tail == [1, 0]

    def test_head_tail_split_requires_tracking(self):
        tracker = LoadTracker(2)
        tracker.record(0)
        with pytest.raises(SimulationError):
            tracker.head_tail_split()


class TestImbalanceTimeSeries:
    def test_records_at_interval(self):
        tracker = LoadTracker(2)
        series = ImbalanceTimeSeries(interval=2)
        for worker in (0, 1, 0, 1, 0):
            tracker.record(worker)
            series.maybe_record(tracker)
        assert series.times == [2, 4]

    def test_disabled_when_interval_zero(self):
        tracker = LoadTracker(2)
        series = ImbalanceTimeSeries(interval=0)
        tracker.record(0)
        series.maybe_record(tracker)
        assert series.times == []

    def test_final_appends_last_point(self):
        tracker = LoadTracker(2)
        series = ImbalanceTimeSeries(interval=2)
        for worker in (0, 1, 0):
            tracker.record(worker)
            series.maybe_record(tracker)
        series.final(tracker)
        assert series.times[-1] == 3

    def test_final_does_not_duplicate(self):
        tracker = LoadTracker(2)
        series = ImbalanceTimeSeries(interval=1)
        tracker.record(0)
        series.maybe_record(tracker)
        series.final(tracker)
        assert series.times == [1]

    def test_average_and_maximum(self):
        series = ImbalanceTimeSeries(interval=1, times=[1, 2], values=[0.1, 0.3])
        assert series.average == pytest.approx(0.2)
        assert series.maximum == pytest.approx(0.3)

    def test_empty_series_statistics(self):
        series = ImbalanceTimeSeries(interval=1)
        assert series.average == 0.0
        assert series.maximum == 0.0

    def test_as_rows(self):
        series = ImbalanceTimeSeries(interval=1, times=[5], values=[0.2])
        assert series.as_rows() == [(5, 0.2)]


class TestLoadSnapshot:
    def test_empty_snapshot(self):
        snapshot = LoadSnapshot(time=0.0, loads=[])
        assert snapshot.total == 0
        assert snapshot.imbalance == 0.0
        assert snapshot.normalized == []

    def test_zero_total_normalization(self):
        snapshot = LoadSnapshot(time=0.0, loads=[0, 0])
        assert snapshot.normalized == [0.0, 0.0]

    def test_average_is_correctly_rounded(self):
        # A left-to-right float sum of ten 0.1s is 0.9999999999999999.
        series = ImbalanceTimeSeries(interval=1, times=list(range(10)), values=[0.1] * 10)
        assert series.average == 0.1

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50).flatmap(
            lambda values: st.tuples(st.just(values), st.permutations(values))
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_average_does_not_depend_on_sample_order(self, pair):
        values, shuffled = pair
        times = list(range(len(values)))
        one = ImbalanceTimeSeries(interval=1, times=times, values=values)
        two = ImbalanceTimeSeries(interval=1, times=times, values=list(shuffled))
        assert one.average == two.average


class TestWindowedImbalanceSeries:
    @staticmethod
    def _feed(tracker, series, workers):
        for worker in workers:
            tracker.record(worker)
            series.maybe_record(tracker)

    def test_each_window_measures_only_its_own_messages(self):
        tracker = LoadTracker(2)
        series = WindowedImbalanceSeries(interval=4)
        # Window 1 is the baseline; window 2 is all on worker 0, window 3 balanced.
        self._feed(tracker, series, [0, 1, 0, 1] + [0, 0, 0, 0] + [0, 1, 1, 0])
        assert series.times == [8, 12]
        assert series.values == [0.5, 0.0]
        assert series.worst == 0.5
        assert series.as_rows() == [(8, 0.5), (12, 0.0)]
        # The cumulative imbalance dilutes the hot window.
        assert tracker.imbalance() == 4 / 24  # loads [8, 4]

    def test_rescale_drops_the_open_window(self):
        tracker = LoadTracker(2)
        series = WindowedImbalanceSeries(interval=2)
        self._feed(tracker, series, [0, 1, 0, 0])
        tracker.rescale(3)
        self._feed(tracker, series, [2, 2, 0, 1])
        # The window closing at 6 straddles the rescale and is dropped.
        assert series.times == [4, 8]
        assert series.values == [0.5, 1 / 6]

    def test_disabled_when_interval_zero(self):
        tracker = LoadTracker(2)
        series = WindowedImbalanceSeries(interval=0)
        self._feed(tracker, series, [0, 0, 0, 1])
        assert series.times == []
        assert series.worst == 0.0
