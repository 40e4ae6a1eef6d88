"""What a SpaceSaving miss pays for, pinned as relations.

A message whose key is not monitored evicts the oldest key of the minimum
count class.  Two properties of that path are easy to lose without any
equivalence test noticing, because both leave the summary byte-identical:

* **it is O(1) in the capacity** — the victim comes off a snapshot of the
  class, not from a fresh iteration over a dict that earlier evictions left
  full of tombstones (which made draining a class of C keys cost C^2 / 2);
* **it never leaves the bulk loop** — once the sketch is full,
  ``add_and_classify_runs`` makes no Python-level call per message.

``tests/sketches/test_space_saving_model.py`` holds the values; this file
holds the costs, in the style of ``tests/partitioning/test_head_path_costs.py``.
"""

from __future__ import annotations

import operator
import time

import pytest

from repro.exceptions import SketchError
from repro.sketches.space_saving import SpaceSaving
from repro.workloads.zipf_stream import ZipfWorkload

MISSES = 30_000


def _ns_per_miss(capacity: int) -> float:
    best = float("inf")
    for _ in range(3):
        sketch = SpaceSaving(capacity)
        sketch.add_and_classify_runs(range(capacity), 2.0)
        fresh = list(range(capacity, capacity + MISSES))
        started = time.perf_counter()
        sketch.add_and_classify_runs(fresh, 2.0)
        best = min(best, time.perf_counter() - started)
        assert len(sketch) == capacity and sketch.total == capacity + MISSES
    return best / MISSES * 1e9


def test_miss_cost_is_flat_in_capacity():
    """30k all-distinct misses cost the same per miss at capacity 64 and 16,384.

    Not a flaky timing test: both sides run in this process, back to back,
    best of three, and the bound is a *ratio* with a wide margin on either
    side — the tombstone walk this guards against measured 7.8 (848 vs
    6,660 ns per miss), the snapshot 0.93-1.02; the assertion sits at 3.
    """
    small = _ns_per_miss(64)
    large = _ns_per_miss(16_384)
    assert large / small < 3.0, f"{small:.0f} ns at 64, {large:.0f} ns at 16,384"


CALLABLES = (
    "add_and_estimate",
    "_insert_new",
    "_increment",
    "_take_victim",
    "_evict",
    "_replace_minimum",
    "_find_or_create_bucket",
    "_maybe_drop",
)


@pytest.mark.parametrize("seed", [2016, 31])
def test_full_sketch_makes_no_call_per_message(seed):
    """A ``sim_wide``-shaped sender (Zipf 0.8 over 1M keys, 1,000 counters):
    ~90 % of messages miss, and none of them leaves the loop."""
    sketch = SpaceSaving(1_000)
    calls = dict.fromkeys(CALLABLES, 0)

    def counted(name):
        method = getattr(sketch, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in CALLABLES:
        setattr(sketch, name, counted(name))
    at_full = None
    seen_while_full: set = set()
    for chunk in ZipfWorkload(0.8, 1_000_000, 24_000, seed=seed).iter_batches(256):
        if at_full is None and len(sketch) == sketch.capacity:
            at_full = dict(calls)
        if at_full is not None:
            seen_while_full.update(chunk)
        sketch.add_and_classify_runs(chunk, 0.002)
        # The snapshot is a prefix-consumed copy of one class of the sketch.
        assert operator.length_hint(sketch._victims) <= sketch.capacity
    assert at_full is not None and at_full["_insert_new"] == sketch.capacity
    assert calls == at_full  # nothing was called once the sketch was full
    # ...though most of the stream missed: every distinct key beyond the
    # monitored ones had to evict at least once.
    assert len(seen_while_full) - sketch.capacity > 10_000


def test_exhausted_snapshot_raises_instead_of_reusing_a_stale_name():
    sketch = SpaceSaving(3)
    sketch.add_and_classify_runs([0, 1, 2, 3], 2.0)  # 3 evicts 0: snapshot taken
    # Break the premise by hand: a key enters the minimum class of a full
    # sketch behind the snapshot's back.
    sketch._head.keys[99] = 0
    sketch._where[99] = sketch._head
    with pytest.raises(SketchError, match="snapshot exhausted"):
        sketch.add_and_classify_runs([4, 5, 6], 2.0)
    assert sketch.total == 6  # 4 and 5 were accounted, 6 was not
    with pytest.raises(SketchError, match="snapshot exhausted"):
        sketch.add(6)


def test_a_bad_key_mid_chunk_leaves_the_sketch_consistent():
    sketch = SpaceSaving(2)
    with pytest.raises(TypeError):
        sketch.add_and_classify_runs(["a", "b", "c", ["unhashable"], "d"], 2.0)
    assert sketch.total == 3
    assert sum(entry.count for entry in sketch.entries()) == 3
    sketch.add_and_classify_runs(["d", "e"], 2.0)  # eviction order intact
    assert [entry.key for entry in sketch.entries()] == ["d", "e"]
