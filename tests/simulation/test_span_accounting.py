"""Columnar span accounting equals the per-message oracle, sample for sample.

A ``columnar:N`` run accounts every routed span with array operations: the
worker-side key state as one bit per (key id, worker) for the whole span
(``WorkerKeyBits.record_span``), then ``LoadTracker.record_span`` and
``MigrationCostAccountant.tick_span`` cut at the exact message counts where
the imbalance series sample; segments shorter than ``_COLUMNAR_SEGMENT`` go
through the per-message body the scalar oracle runs.  The oracle keeps one
set of keys per worker.  Whatever the sampling intervals, the span size,
the worker count (a bit row is one ``uint64`` per 64 workers) and the
rescale plan, the whole ``SimulationResult`` must equal the
``mode="scalar"`` run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.elasticity.accountant import MigrationCostAccountant
from repro.elasticity.events import RescaleEvent
from repro.elasticity.policies import get_policy
from repro.exceptions import SimulationError
from repro.partitioning.registry import available_schemes
from repro.simulation import engine as engine_module
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import LoadTracker
from repro.workloads.zipf_stream import ZipfWorkload

THRESHOLD = engine_module._COLUMNAR_SEGMENT

#: AD's clocks are short enough for its sources to switch mid-stream.
SCHEME_OPTIONS: dict[str, dict[str, object]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
    "AD": {"check_interval": 200, "policy": "dwell=300"},
}


def _observed(scheme: str, stream, mode: str, **options) -> dict[str, object]:
    """Everything a run measured: the result's fields plus both series."""
    config = SimulationConfig(
        scheme=scheme,
        num_workers=options.pop("num_workers", 12),
        seed=4,
        scheme_options=SCHEME_OPTIONS.get(scheme, {}),
        mode=mode,
        **options,
    )
    engine = SimulationEngine(config)
    result = engine.run(stream)
    observed = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
    }
    series = observed.pop("time_series")
    observed["time_series"] = None if series is None else series.as_rows()
    report = observed.pop("migration")
    observed["migration"] = None if report is None else report.to_dict()
    windows = engine._window_series
    observed["windows"] = None if windows is None else windows.as_rows()
    return observed


def _assert_same(columnar: dict[str, object], scalar: dict[str, object]) -> None:
    for name, expected in scalar.items():
        assert columnar[name] == expected, name


def _count_calls(monkeypatch, cls, method: str) -> list[int]:
    """Count calls of ``cls.method`` (the original still runs)."""
    calls = [0]
    original = getattr(cls, method)

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counting)
    return calls


class TestEqualsTheScalarOracle:
    @given(
        scheme=st.sampled_from(available_schemes()),
        exponent=st.sampled_from([0.8, 1.4, 2.0]),
        stream_seed=st.integers(min_value=0, max_value=50),
        num_messages=st.integers(min_value=1_500, max_value=4_000),
        num_sources=st.integers(min_value=1, max_value=5),
        # Inside one word of key bits, a full word, and one bit past it.
        num_workers=st.sampled_from([12, 1, 63, 64, 65]),
        batch_size=st.sampled_from([64, 200, 301, 1_024]),
        # 1 samples after every message, 5_000 never inside the stream; the
        # rest are multiples of no span size above.
        track_interval=st.sampled_from([0, 1, 7, 193, 250, 777, 1_001, 5_000]),
        imbalance_window=st.sampled_from([0, 1, 97, 333, 500, 1_234, 5_000]),
        track_head_tail=st.booleans(),
        event_offset=st.integers(min_value=0, max_value=1_400),
        migration_window=st.integers(min_value=1, max_value=2_500),
        kind=st.sampled_from(["join", "leave", "fail", None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_recorded_value(
        self, scheme, exponent, stream_seed, num_messages, num_sources, num_workers,
        batch_size, track_interval, imbalance_window, track_head_tail, event_offset,
        migration_window, kind,
    ):
        assume(num_workers > 1 or kind in ("join", None))
        stream = ZipfWorkload(exponent, 400, num_messages, seed=stream_seed)
        # The misroute window opens at any offset inside a span and, drawn
        # up to 2_500 tuples long, closes in the same span, in a later one
        # or past the end of the stream.
        plan = None if kind is None else f"{kind}@{event_offset}"
        options = dict(
            num_sources=num_sources,
            num_workers=num_workers,
            track_interval=track_interval,
            imbalance_window=imbalance_window,
            track_head_tail=track_head_tail,
            rescale_plan=plan,
            rescale_policy="migrate",
            migration_window=migration_window,
        )
        scalar = _observed(scheme, stream, "scalar", **options)
        columnar = _observed(scheme, stream, f"columnar:{batch_size}", **options)
        _assert_same(columnar, scalar)

    @pytest.mark.parametrize("scheme", ["KG", "PKG", "D-C", "W-C", "AD"])
    def test_misroute_window_straddles_a_span_boundary(self, scheme):
        # Spans of 5 x 200 messages; the join at 1_500 opens a window of
        # 1_200 tuples that crosses the boundary at 2_000 and closes at
        # 2_700, in the middle of the third span.
        stream = ZipfWorkload(1.4, 400, 6_000, seed=3)
        options = dict(
            num_sources=5,
            track_interval=777,
            imbalance_window=333,
            track_head_tail=True,
            rescale_plan="join@1500,fail@4100",
            rescale_policy="migrate",
            migration_window=1_200,
        )
        scalar = _observed(scheme, stream, "scalar", **options)
        columnar = _observed(scheme, stream, "columnar:200", **options)
        _assert_same(columnar, scalar)
        join, fail = (
            event for event in scalar["migration"]["events"]
            if event["kind"] in ("join", "fail")
        )
        assert join["misroute_window"] == 1_200
        if scheme != "AD":  # AD starts on PKG-like candidates; may move none
            assert join["tuples_misrouted"] > 0, "no misrouted tuple: vacuous"
        assert len(scalar["time_series"]) == 6_000 // 777 + 1
        # 18 windows close: the first only sets the baseline and each
        # rescale drops the window it falls into.
        assert len(scalar["windows"]) == 6_000 // 333 - 3

    @pytest.mark.parametrize("scheme", ["KG", "PKG", "D-C", "W-C"])
    @pytest.mark.parametrize(
        "num_workers, plan",
        [
            (64, "join@1500"),
            (65, "leave@1500"),
            (65, "fail@1500"),
            (128, "join@1500"),
            (63, "join@1000,join@2000,fail@3000,leave@4000"),
        ],
    )
    def test_rescales_across_a_word_of_key_bits(self, scheme, num_workers, plan):
        # 64 -> 65 and 128 -> 129 add a word to every bit row, 65 -> 64
        # drops one; the last plan walks 63 -> 64 -> 65 -> 64 -> 63.
        stream = ZipfWorkload(1.1, 3_000, 5_000, seed=7)
        options = dict(
            num_workers=num_workers,
            num_sources=3,
            rescale_plan=plan,
            rescale_policy="migrate",
            migration_window=800,
        )
        scalar = _observed(scheme, stream, "scalar", **options)
        columnar = _observed(scheme, stream, "columnar:256", **options)
        _assert_same(columnar, scalar)
        events = scalar["migration"]["events"]
        words = [
            ((event["old_num_workers"] + 63) // 64, (event["new_num_workers"] + 63) // 64)
            for event in events
        ]
        assert any(old != new for old, new in words), "no event crossed a word: vacuous"
        assert all(event["keys_moved"] > 0 for event in events), events
        assert sum(event["entries_migrated"] for event in events) > 0
        if "fail" in plan:
            assert sum(event["entries_lost"] for event in events) > 0

    def test_samples_are_taken_inside_columnar_segments(self, monkeypatch):
        # 250 and 400 leave segments of 250, 150, 100, 250, ...: the long
        # ones are columnar, the short ones merge into per-message runs.
        spans = _count_calls(monkeypatch, LoadTracker, "record_span")
        singles = _count_calls(monkeypatch, LoadTracker, "record")
        stream = ZipfWorkload(1.4, 400, 4_000, seed=1)
        options = dict(num_sources=2, track_interval=250, imbalance_window=400)
        columnar = _observed("W-C", stream, "columnar:2000", **options)
        assert spans[0] > 0 and 0 < singles[0] < 4_000
        singles[0] = 0
        scalar = _observed("W-C", stream, "scalar", **options)
        assert singles[0] == 4_000
        _assert_same(columnar, scalar)
        assert [time for time, _ in scalar["time_series"]] == list(range(250, 4_001, 250))
        assert [time for time, _ in scalar["windows"]] == list(range(800, 4_001, 400))


class TestFragmentRule:
    @pytest.mark.parametrize("scheme", ["PKG", "D-C"])
    def test_spans_around_the_threshold(self, scheme, monkeypatch):
        spans = _count_calls(monkeypatch, LoadTracker, "record_span")
        stream = ZipfWorkload(1.4, 400, 8 * THRESHOLD, seed=5)
        options = dict(num_sources=1, track_head_tail=True)
        scalar = _observed(scheme, stream, "scalar", **options)
        assert spans[0] == 0
        for size in (THRESHOLD - 1, THRESHOLD, THRESHOLD + 1):
            spans[0] = 0
            _assert_same(
                _observed(scheme, stream, f"columnar:{size}", **options), scalar
            )
            # Below the threshold no span is long enough; from it on, every
            # span but the closing fragment is.
            expected = 0 if size < THRESHOLD else 8 * THRESHOLD // size
            assert spans[0] == expected, size

    @pytest.mark.parametrize("scheme", ["KG", "D-C"])
    def test_full_spans_never_touch_the_per_message_path(self, scheme, monkeypatch):
        # sim_hot's shape: 50 workers, five sources, spans of 5 x 4096; the
        # closing span of 45_000 messages holds 4_040, still columnar.
        singles = _count_calls(monkeypatch, LoadTracker, "record")
        stream = ZipfWorkload(1.4, 10_000, 45_000, seed=2016)
        options = dict(num_workers=50, num_sources=5)
        columnar = _observed(scheme, stream, "columnar:4096", **options)
        assert singles[0] == 0
        scalar = _observed(scheme, stream, "scalar", **options)
        assert singles[0] == 45_000
        _assert_same(columnar, scalar)


class TestRecordSpan:
    def test_equals_one_record_per_message(self):
        workers = [0, 2, 2, 1, 2, 0]
        heads = [True, False, True, False, True, False]
        single = LoadTracker(4, track_head_tail=True)
        for worker, is_head in zip(workers, heads):
            single.record(worker, is_head=is_head)
        span = LoadTracker(4, track_head_tail=True)
        span.record_span(np.array(workers), np.array(heads))
        assert span.loads == single.loads == [2, 1, 3, 0]
        assert span.head_tail_split() == single.head_tail_split()
        assert span.total_messages == span.messages_seen == 6
        assert all(type(load) is int for load in span.loads)

    def test_no_head_mask_means_no_head_message(self):
        tracker = LoadTracker(2, track_head_tail=True)
        tracker.record_span(np.array([0, 1, 1]))
        assert tracker.head_tail_split() == ([0, 0], [1, 2])

    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_worker_moves_no_counter(self, bad):
        tracker = LoadTracker(3, track_head_tail=True)
        tracker.record(1, is_head=True)
        with pytest.raises(SimulationError, match=rf"worker {bad} outside \[0, 3\)"):
            tracker.record_span(
                np.array([0, 2, bad, 1]), np.array([True, True, True, True])
            )
        assert tracker.loads == [0, 1, 0]
        assert tracker.head_tail_split() == ([0, 1, 0], [0, 0, 0])
        assert tracker.total_messages == tracker.messages_seen == 1


class TestTickSpan:
    @staticmethod
    def _open_window(window: int) -> tuple[MigrationCostAccountant, object]:
        accountant = MigrationCostAccountant(
            get_policy("migrate"), migration_window=window
        )
        record = accountant.begin_event(RescaleEvent(offset=0, kind="join"), 4, 5)
        accountant.finish_event(
            record,
            moved_keys=frozenset({1, 3}),
            entries_migrated=0,
            entries_lost=0,
            head_keys_preserved=0,
        )
        return accountant, record

    def test_equals_one_tick_per_id_and_closes_mid_span(self):
        ids = [1, 2, 3, 3, 1, 1, 3]
        ticked, expected = self._open_window(5)
        for kid in ids:
            if ticked.window_open:
                ticked.tick(kid)
        spanned, record = self._open_window(5)
        spanned.tick_span(np.array(ids[:2]))
        assert spanned.window_open
        spanned.tick_span(np.array(ids[2:]))  # the window closes after 3 of 5
        assert not spanned.window_open
        assert record.tuples_misrouted == expected.tuples_misrouted == 4

    def test_closed_window_counts_nothing(self):
        accountant, record = self._open_window(2)
        accountant.tick_span(np.array([1, 1, 1]))
        accountant.tick_span(np.array([3, 3]))
        assert record.tuples_misrouted == 2
