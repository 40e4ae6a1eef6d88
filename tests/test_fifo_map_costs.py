"""What a full cache pays per miss, pinned as relations.

Every FIFO-bounded cache used to name its victim with ``next(iter(d))`` on a
dict drained from the front; CPython's iterator steps over the tombstone of
every key deleted since the dict last resized, so the per-miss cost grew
with the bound and with how long the cache had been full.  No equivalence
test notices — the cached values are the same — so the three sites where a
stream can actually fill the cache are held here as ratios, in the style of
``tests/sketches/test_miss_path_costs.py``.  ``tests/test_fifo_map.py``
holds the values.
"""

from __future__ import annotations

import time

import numpy as np

from repro.hashing.hash_family import HashFamily
from repro.partitioning.consistent_grouping import ConsistentGrouping
from repro.partitioning.head_tail import HeadTailPartitioner
from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import KeyDictionary


def _best_of_three(measure) -> float:
    return min(measure() for _ in range(3))


BLOCK = 40_000


def _slowest_late_block_over_first() -> float:
    """Six blocks of 40k distinct keys through one family: slowest of 3-6 / 1st."""
    family = HashFamily(num_functions=2, num_buckets=50, seed=1)
    candidates = family.candidates
    elapsed = []
    for block in range(6):
        keys = range(block * BLOCK, (block + 1) * BLOCK)
        started = time.perf_counter()
        for key in keys:
            candidates(key, 2)
        elapsed.append(time.perf_counter() - started)
    assert len(family._candidate_cache) == 1 << 16
    return max(elapsed[2:]) / elapsed[0]


def test_candidates_cost_is_flat_past_a_full_cache():
    """The scalar oracle's 240,000th distinct key costs what its first did.

    The cache (65,536 tuples) fills during the second block; the tombstone
    walk measured 2.1 / 4.0 / 14 / 41 / 66 / 19 us per key over the six
    blocks (31x at the fifth; the sixth caught a dict resize), the deque
    2.3-2.5 throughout.  Not a flaky timing test: all blocks run in this
    process, back to back, the ratio is taken per run and the best of three
    kept, and the bound (3) is far from either side.
    """
    ratio = _best_of_three(_slowest_late_block_over_first)
    assert ratio < 3.0, f"slowest of blocks 3-6 / 1st block = {ratio:.1f}"


def _owner_ns_per_id(scheme: ConsistentGrouping, distinct: int) -> float:
    dictionary = KeyDictionary()
    ids = dictionary.intern_int_array(np.arange(distinct))
    scheme.reset()
    scheme._bind_dictionary(dictionary)
    started = time.perf_counter()
    scheme._route_ids(ids)
    return (time.perf_counter() - started) / distinct * 1e9


def test_owner_cache_cost_is_flat_past_its_limit(monkeypatch):
    """CH routes 4x its owner-cache limit of distinct ids at the per-id cost
    of half the limit.

    Every id is a miss on both sides (ring lookup + insert); only the long
    run evicts.  Same process, best of three each, bound 3 — the limit is
    lowered to 16,384 so the long side is 65k ring lookups, not 262k; the
    walk it guards against grows with the limit, so the real one is flatter
    still.
    """
    limit = 1 << 14
    monkeypatch.setattr(ConsistentGrouping, "_ID_OWNER_CACHE_LIMIT", limit)
    scheme = ConsistentGrouping(num_workers=16, seed=3)
    short = _best_of_three(lambda: _owner_ns_per_id(scheme, limit // 2))
    long = _best_of_three(lambda: _owner_ns_per_id(scheme, 4 * limit))
    assert len(scheme._id_owner_cache) == limit
    assert long / short < 3.0, f"{short:.0f} ns at 0.5x, {long:.0f} ns at 4x"


MISSES = 30_000


def _head_ns_per_miss(limit: int, monkeypatch) -> float:
    monkeypatch.setattr(HeadTailPartitioner, "_HEAD_CANDIDATE_CACHE_LIMIT", limit)
    dictionary = KeyDictionary()
    dictionary.intern_int_array(np.arange(limit + MISSES))

    def measure() -> float:
        scheme = create_partitioner("FIXED-D", num_workers=50, num_choices=5)
        scheme._bind_dictionary(dictionary)
        cached = scheme._cached_head_candidates
        for kid in range(limit):
            cached(kid, 5)
        started = time.perf_counter()
        for kid in range(limit, limit + MISSES):
            cached(kid, 5)
        elapsed = time.perf_counter() - started
        assert len(scheme._head_cand_cache) == len(scheme._head_floors) == limit
        assert len(scheme._head_hashes) == limit
        return elapsed / MISSES * 1e9

    return _best_of_three(measure)


def test_head_candidate_miss_cost_is_flat_in_the_limit(monkeypatch):
    """30k distinct head ids through full head structures cost the same per
    id whether those hold 64 keys or 16,384.

    Each miss hashes five functions, derives the tuple and evicts from both
    bounded maps (the floor follows the tuple's victim).  Same process,
    best of three each, a ratio with bound 3: not a timing test.
    """
    small = _head_ns_per_miss(64, monkeypatch)
    large = _head_ns_per_miss(1 << 14, monkeypatch)
    assert large / small < 3.0, f"{small:.0f} ns at 64, {large:.0f} ns at 16,384"
