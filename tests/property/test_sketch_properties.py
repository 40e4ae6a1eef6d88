"""Property-based tests (hypothesis) for the SpaceSaving sketch."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.space_saving import SpaceSaving

#: Streams of small-alphabet keys: collisions and evictions are frequent,
#: which is exactly where the sketch invariants are most at risk.
key_streams = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=400
)
capacities = st.integers(min_value=1, max_value=20)


class TestSpaceSavingProperties:
    @given(stream=key_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_never_underestimates_and_error_bounded(self, stream, capacity):
        sketch = SpaceSaving(capacity=capacity)
        sketch.add_all(stream)
        exact = Counter(stream)
        for entry in sketch.entries():
            assert entry.count >= exact[entry.key]
            assert entry.count - exact[entry.key] <= entry.error
            assert entry.error <= len(stream) / capacity

    @given(stream=key_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_total_and_size_invariants(self, stream, capacity):
        sketch = SpaceSaving(capacity=capacity)
        sketch.add_all(stream)
        assert sketch.total == len(stream)
        assert len(sketch) <= capacity
        assert len(sketch) <= len(set(stream))

    @given(stream=key_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_sum_of_estimates_at_least_total(self, stream, capacity):
        # every arrival increments exactly one monitored counter, and
        # counters only leave the summary by being inherited, so the sum of
        # estimates can never fall below the number of arrivals when the
        # sketch is not full (and equals at least total in general).
        sketch = SpaceSaving(capacity=capacity)
        sketch.add_all(stream)
        assert sum(entry.count for entry in sketch.entries()) >= min(
            len(stream), sketch.min_count() * len(sketch)
        )

    @given(
        stream=key_streams,
        capacity=capacities,
        threshold=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_heavy_hitters_no_false_negatives(self, stream, capacity, threshold):
        # guarantee only holds when the sketch has at least 1/threshold slots
        sketch = SpaceSaving(capacity=max(capacity, int(1 / threshold) + 1))
        sketch.add_all(stream)
        exact = Counter(stream)
        heavy = {
            key for key, count in exact.items() if count >= threshold * len(stream)
        }
        assert heavy <= set(sketch.heavy_hitters(threshold))

    @given(left=key_streams, right=key_streams, capacity=capacities)
    @settings(max_examples=40, deadline=None)
    def test_merge_preserves_no_underestimation(self, left, right, capacity):
        sketch_left = SpaceSaving(capacity=capacity)
        sketch_right = SpaceSaving(capacity=capacity)
        sketch_left.add_all(left)
        sketch_right.add_all(right)
        merged = sketch_left.merge(sketch_right)
        exact = Counter(left) + Counter(right)
        assert merged.total == len(left) + len(right)
        for entry in merged.entries():
            assert entry.count >= exact[entry.key]

