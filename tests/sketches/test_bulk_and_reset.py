"""Bulk updates and in-place reset of the SpaceSaving sketch."""

from __future__ import annotations

import random

import pytest

from repro.partitioning.head_tail import HeadTailPartitioner
from repro.partitioning.w_choices import WChoices
from repro.sketches.space_saving import SpaceSaving


def _summary(sketch: SpaceSaving) -> list[tuple]:
    return sorted((e.key, e.count, e.error) for e in sketch.entries())


class TestSpaceSavingBulk:
    def test_add_all_equals_elementwise_adds(self):
        rng = random.Random(42)
        # bursty stream: runs of the same key, as produced by skewed sources
        stream: list[int] = []
        while len(stream) < 30_000:
            stream.extend([rng.randrange(600)] * rng.randrange(1, 8))
        elementwise = SpaceSaving(capacity=100)
        for key in stream:
            elementwise.add(key)
        bulk = SpaceSaving(capacity=100)
        bulk.add_all(stream)
        assert bulk.total == elementwise.total == len(stream)
        assert _summary(bulk) == _summary(elementwise)

    def test_add_and_estimate_matches_add_then_estimate(self):
        rng = random.Random(7)
        stream = [rng.randrange(300) for _ in range(20_000)]
        fused = SpaceSaving(capacity=64)
        plain = SpaceSaving(capacity=64)
        for key in stream:
            estimate = fused.add_and_estimate(key)
            plain.add(key)
            assert estimate == plain.estimate(key) == fused.estimate(key)
        assert _summary(fused) == _summary(plain)

    def test_add_all_handles_none_and_leading_runs(self):
        sketch = SpaceSaving(capacity=8)
        sketch.add_all([None, None, "a", "a", "a", None])
        assert sketch.total == 6
        assert sketch.estimate(None) == 3
        assert sketch.estimate("a") == 3


def _fed(capacity, stream):
    sketch = SpaceSaving(capacity=capacity)
    for key in stream:
        sketch.add(key)
    return sketch


def _grown_after_feeding(stream):
    sketch = _fed(8, stream)
    sketch.grow(16)
    return sketch


def _rebuilt_after_feeding(stream):
    return SpaceSaving.from_state(_fed(16, stream).export_state())


def _largest_first_after_feeding(stream):
    # from_state replays its entries in order; largest first reverses the
    # order in which the count classes are created.
    state = _fed(16, stream).export_state()
    state["entries"].sort(key=lambda entry: entry[1], reverse=True)
    return SpaceSaving.from_state(state)


class TestSketchReset:
    @pytest.mark.parametrize(
        "used_sketch, capacity",
        [
            (lambda stream: _fed(16, stream), 16),
            (lambda stream: _fed(1, stream), 1),
            (_grown_after_feeding, 16),
            (_rebuilt_after_feeding, 16),
            (_largest_first_after_feeding, 16),
        ],
        ids=["space_saving", "capacity_1", "grown", "from_state", "largest_first"],
    )
    def test_reset_behaves_like_a_fresh_sketch(self, used_sketch, capacity):
        rng = random.Random(3)
        stream = [rng.randrange(200) for _ in range(5_000)]
        used = used_sketch(stream)
        used.reset()
        fresh = SpaceSaving(capacity=capacity)
        assert used.total == 0
        for key in stream[:1_000]:
            used.add(key)
            fresh.add(key)
        assert used.total == fresh.total
        assert {e.key for e in used.entries()} == {e.key for e in fresh.entries()}
        assert all(used.estimate(k) == fresh.estimate(k) for k in set(stream[:1_000]))
        assert used.export_state() == fresh.export_state()

    def test_space_saving_reset_keeps_capacity(self):
        sketch = SpaceSaving(capacity=4)
        sketch.add_all(range(100))
        sketch.reset()
        assert sketch.capacity == 4
        assert len(sketch) == 0
        assert sketch.min_count() == 0


class TestHeadTailResetPath:
    def test_reset_partitioner_routes_like_a_fresh_one(self):
        # The sketch resets in place, so a reset partitioner must route
        # exactly like a fresh one.
        used = WChoices(num_workers=10, seed=3)
        sketch = used.sketch
        keys = [f"k{i % 40}" for i in range(4_000)]
        for key in keys:
            used.route(key)
        used.reset()
        fresh = WChoices(num_workers=10, seed=3)
        assert [used.route(k) for k in keys] == [fresh.route(k) for k in keys]
        assert used.sketch is sketch  # same object, cleared
        assert isinstance(used, HeadTailPartitioner)
