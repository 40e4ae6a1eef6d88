"""Unit tests for the SpaceSaving sketch."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError, SketchError
from repro.sketches.space_saving import SpaceSaving
from repro.workloads.zipf_stream import ZipfWorkload


def _exact_counts(keys):
    return Counter(keys)


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            SpaceSaving(capacity=0)

    def test_for_threshold_capacity(self):
        sketch = SpaceSaving.for_threshold(0.01, slack=1.0)
        assert sketch.capacity == 100

    def test_for_threshold_with_slack(self):
        sketch = SpaceSaving.for_threshold(0.01, slack=2.0)
        assert sketch.capacity == 200

    def test_for_threshold_rounds_up(self):
        # Regression: int(round(...)) used banker's rounding and
        # under-provisioned — for_threshold(0.4) got capacity 2 where the
        # no-false-negative guarantee needs ceil(1 / 0.4) = 3 counters.
        assert SpaceSaving.for_threshold(0.4).capacity == 3

    @pytest.mark.parametrize("slack", [1.0, 1.5, 2.0])
    def test_for_threshold_capacity_never_below_guarantee(self, slack):
        # The documented guarantee is capacity >= slack / threshold for
        # every threshold, not just the ones that divide evenly.
        thresholds = [0.003, 0.01, 0.07, 1 / 7, 0.25, 1 / 3, 0.4, 0.6, 0.9, 1.0]
        for threshold in thresholds:
            capacity = SpaceSaving.for_threshold(threshold, slack=slack).capacity
            assert capacity >= slack / threshold, (
                f"threshold={threshold}, slack={slack}: capacity {capacity} "
                f"< {slack / threshold}"
            )

    def test_grow_preserves_counters(self):
        sketch = SpaceSaving(capacity=2)
        for key in ["a", "a", "b", "a", "c"]:
            sketch.add(key)
        monitored = {entry.key: entry.count for entry in sketch.entries()}
        sketch.grow(5)
        assert sketch.capacity == 5
        assert {entry.key: entry.count for entry in sketch.entries()} == monitored
        # The freed budget admits new keys without evicting the old ones.
        sketch.add("d")
        assert sketch.estimate("a") >= 3
        assert sketch.estimate("d") == 1

    def test_grow_rejects_shrink(self):
        with pytest.raises(SketchError):
            SpaceSaving(capacity=10).grow(5)

    def test_for_threshold_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            SpaceSaving.for_threshold(0.0)
        with pytest.raises(ConfigurationError):
            SpaceSaving.for_threshold(1.5)

    def test_for_threshold_rejects_bad_slack(self):
        with pytest.raises(ConfigurationError):
            SpaceSaving.for_threshold(0.1, slack=0.0)


class TestBasicCounting:
    def test_exact_when_under_capacity(self):
        sketch = SpaceSaving(capacity=10)
        stream = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        sketch.add_all(stream)
        assert sketch.estimate("a") == 5
        assert sketch.estimate("b") == 3
        assert sketch.estimate("c") == 2
        assert sketch.error("a") == 0

    def test_total_tracks_stream_length(self):
        sketch = SpaceSaving(capacity=2)
        sketch.add_all(["x"] * 7 + ["y"] * 4 + ["z"] * 2)
        assert sketch.total == 13

    def test_unseen_key_estimate_zero(self):
        sketch = SpaceSaving(capacity=4)
        sketch.add("a")
        assert sketch.estimate("never") == 0
        assert "never" not in sketch

    def test_add_with_count(self):
        sketch = SpaceSaving(capacity=4)
        sketch.add("a", count=10)
        sketch.add("a", count=5)
        assert sketch.estimate("a") == 15

    def test_add_with_count_matches_repeated_add(self):
        # Through a full sketch too: the weighted miss replaces the minimum
        # once and inherits its count, like the first of the single adds.
        bulk = SpaceSaving(capacity=3)
        single = SpaceSaving(capacity=3)
        for sketch in (bulk, single):
            sketch.add_all(["a", "b", "b", "c", "c", "c"])
        bulk.add("d", count=5)
        bulk.add("b", count=4)
        for key, count in (("d", 5), ("b", 4)):
            for _ in range(count):
                single.add(key)
        assert bulk.export_state() == single.export_state()

    def test_add_rejects_non_positive_count(self):
        sketch = SpaceSaving(capacity=4)
        with pytest.raises(SketchError):
            sketch.add("a", count=0)

    def test_len_bounded_by_capacity(self):
        sketch = SpaceSaving(capacity=5)
        sketch.add_all(str(i) for i in range(100))
        assert len(sketch) <= 5

    def test_min_count_empty(self):
        assert SpaceSaving(capacity=3).min_count() == 0


class TestGuarantees:
    """The classic SpaceSaving guarantees on adversarial-ish streams."""

    def test_never_underestimates(self):
        stream = list(ZipfWorkload(1.2, 500, 20_000, seed=3))
        sketch = SpaceSaving(capacity=50)
        sketch.add_all(stream)
        exact = _exact_counts(stream)
        for entry in sketch.entries():
            assert entry.count >= exact[entry.key]

    def test_error_bounded_by_total_over_capacity(self):
        stream = list(ZipfWorkload(1.0, 500, 20_000, seed=4))
        capacity = 64
        sketch = SpaceSaving(capacity=capacity)
        sketch.add_all(stream)
        for entry in sketch.entries():
            assert entry.error <= len(stream) / capacity

    def test_overestimation_bounded(self):
        stream = list(ZipfWorkload(1.5, 500, 20_000, seed=5))
        capacity = 64
        sketch = SpaceSaving(capacity=capacity)
        sketch.add_all(stream)
        exact = _exact_counts(stream)
        for entry in sketch.entries():
            assert entry.count - exact[entry.key] <= len(stream) / capacity

    def test_guaranteed_count_is_lower_bound(self):
        stream = list(ZipfWorkload(1.5, 500, 10_000, seed=6))
        sketch = SpaceSaving(capacity=32)
        sketch.add_all(stream)
        exact = _exact_counts(stream)
        for entry in sketch.entries():
            assert sketch.guaranteed(entry.key) <= exact[entry.key]

    def test_heavy_hitters_no_false_negatives(self):
        stream = list(ZipfWorkload(1.8, 1000, 30_000, seed=7))
        threshold = 0.02
        sketch = SpaceSaving(capacity=int(2 / threshold))
        sketch.add_all(stream)
        exact = _exact_counts(stream)
        true_heavy = {
            key for key, count in exact.items() if count >= threshold * len(stream)
        }
        reported = set(sketch.heavy_hitters(threshold))
        assert true_heavy <= reported

    def test_heavy_hitters_empty_sketch(self):
        assert SpaceSaving(capacity=5).heavy_hitters(0.1) == {}

    def test_top_key_identified(self):
        stream = list(ZipfWorkload(2.0, 1000, 20_000, seed=8))
        sketch = SpaceSaving(capacity=20)
        sketch.add_all(stream)
        exact_top = _exact_counts(stream).most_common(1)[0][0]
        sketch_top = max(sketch.entries(), key=lambda entry: entry.count).key
        assert sketch_top == exact_top


class TestEviction:
    def test_replacement_inherits_min_plus_one(self):
        sketch = SpaceSaving(capacity=2)
        sketch.add("a")        # a:1
        sketch.add("b")        # b:1
        sketch.add("c")        # evicts one of the count-1 keys, c: 2 error 1
        assert sketch.estimate("c") == 2
        assert sketch.error("c") == 1

    def test_monitored_set_follows_recency_on_ties(self):
        sketch = SpaceSaving(capacity=2)
        sketch.add_all(["a", "b", "c"])
        # the oldest minimal counter ("a") is evicted first
        assert sketch.estimate("a") == 0
        assert sketch.estimate("b") == 1

    def test_entries_sorted_walk_covers_all_buckets(self):
        sketch = SpaceSaving(capacity=8)
        sketch.add_all(["a"] * 5 + ["b"] * 5 + ["c"] * 2 + ["d"])
        entries = {entry.key: entry.count for entry in sketch.entries()}
        assert entries == {"a": 5, "b": 5, "c": 2, "d": 1}


class TestMerge:
    def test_merge_totals(self):
        left = SpaceSaving(capacity=10)
        right = SpaceSaving(capacity=10)
        left.add_all(["a"] * 5 + ["b"] * 2)
        right.add_all(["a"] * 3 + ["c"] * 4)
        merged = left.merge(right)
        assert merged.total == left.total + right.total

    def test_merge_never_underestimates(self):
        stream_left = list(ZipfWorkload(1.5, 300, 5_000, seed=1))
        stream_right = list(ZipfWorkload(1.5, 300, 5_000, seed=2))
        left = SpaceSaving(capacity=40)
        right = SpaceSaving(capacity=40)
        left.add_all(stream_left)
        right.add_all(stream_right)
        merged = left.merge(right)
        exact = _exact_counts(stream_left + stream_right)
        for entry in merged.entries():
            assert entry.count >= exact[entry.key]

    def test_chained_merges_sum_totals_and_never_underestimate(self):
        # Merged results merge again (the top-k operator folds every
        # instance's partial state into one): the guarantees compose.
        streams = [list(ZipfWorkload(1.5, 200, 3_000, seed=seed)) for seed in range(4)]
        sketches = []
        for stream in streams:
            sketch = SpaceSaving(capacity=40)
            sketch.add_all(stream)
            sketches.append(sketch)
        merged = sketches[0]
        for sketch in sketches[1:]:
            merged = merged.merge(sketch)
        assert merged.total == sum(len(stream) for stream in streams)
        exact = _exact_counts(key for stream in streams for key in stream)
        for entry in merged.entries():
            assert entry.count >= exact[entry.key]

    def test_merge_capacity_is_max(self):
        merged = SpaceSaving(capacity=10).merge(SpaceSaving(capacity=20))
        assert merged.capacity == 20

    def test_merge_rejects_other_types(self):
        with pytest.raises(SketchError):
            SpaceSaving(capacity=2).merge(object())  # type: ignore[arg-type]

    def test_merge_keeps_heavy_hitters(self):
        left = SpaceSaving(capacity=10)
        right = SpaceSaving(capacity=10)
        left.add_all(["hot"] * 100 + [f"l{i}" for i in range(30)])
        right.add_all(["hot"] * 80 + [f"r{i}" for i in range(30)])
        merged = left.merge(right)
        assert "hot" in merged.heavy_hitters(0.3)
