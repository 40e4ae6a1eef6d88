"""What interning a draw chunk pays for, pinned as relations.

``KeyDictionary.intern_int_array`` / ``intern_mapped_array`` issue a chunk's
new keys in bulk: Python runs per *chunk*, C per key.  That is easy to lose
without any equivalence test noticing — a per-key closure, a comprehension
over the new keys or a scalar fold all leave every id byte-identical — so
this file holds the costs, in the register of
``tests/sketches/test_miss_path_costs.py``; the values are held by
``tests/workloads/test_columnar.py`` and ``benchmarks/stream_digest.py``.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc

import numpy as np
import pytest

from repro.workloads.columnar import KeyDictionary

SMALL, LARGE = 2_000, 200_000

#: Both ways a chunk's distinct values are found: values spanning exactly
#: the chunk go through the dense table, values spread twice as wide through
#: ``np.unique``'s sort.
SPANS = pytest.mark.parametrize("stride", [1, 2], ids=["dense", "sorted"])


def _all_new_chunk(distinct: int, stride: int) -> np.ndarray:
    """``distinct`` keys, each once, in an order the dedupe has to undo."""
    return np.random.default_rng(distinct).permutation(distinct) * stride


def _python_calls(function) -> int:
    """Python-level calls made while ``function`` runs (C calls not counted)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    # A cyclic collection inside the call would run other objects'
    # finalizers and count their calls.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


class _CountedNamer:
    """Names values as ``key-0000042``; records the size of each call."""

    def __init__(self) -> None:
        self.calls: list[int] = []

    def __call__(self, values: list[int]) -> list[str]:
        self.calls.append(len(values))
        # One width at both sizes: the vectorised fold makes one more numpy
        # call when a chunk has a key past 8 bytes, which is per chunk, not
        # per key, but would blur the exact equality below.
        return [f"key-{value:07d}" for value in values]


@SPANS
def test_int_chunk_makes_no_python_call_per_key(stride):
    """An all-new integer chunk costs the same number of Python-level calls
    at 2,000 and at 200,000 distinct keys (the per-key walk it replaced
    read 4,023 and 400,023: an ``issue()`` closure and a ``_forward_key``
    per key), through the dense table and through the sort alike."""
    calls = {}
    for distinct in (SMALL, LARGE):
        dictionary, values = KeyDictionary(), _all_new_chunk(distinct, stride)
        calls[distinct] = _python_calls(lambda: dictionary.intern_int_array(values))
        assert len(dictionary) == distinct
    assert calls[SMALL] == calls[LARGE], calls
    assert calls[LARGE] < 100  # ... and that number is a handful of numpy wrappers


@SPANS
@pytest.mark.parametrize("known", [False, True], ids=["empty", "non-empty"])
def test_mapped_chunk_calls_the_namer_once(stride, known):
    """A named chunk costs the same number of Python-level calls at 2,000
    and at 200,000 distinct keys: one namer call over the whole chunk plus a
    constant — lookup, ordering, store and fold are per chunk (a ``key_fn``
    per distinct value added 2,000 and 200,000; the walk before it also an
    ``issue()``, ``_forward_key`` and ``_key_to_int`` per key).  A known key
    makes the dictionary look the chunk's names up; it still names once."""
    calls = {}
    for distinct in (SMALL, LARGE):
        dictionary, values = KeyDictionary(), _all_new_chunk(distinct, stride)
        if known:
            dictionary.intern("key-0000000")  # the name of the chunk's 0
        names = _CountedNamer()
        calls[distinct] = _python_calls(
            lambda: dictionary.intern_mapped_array(values, names)
        )
        assert names.calls == [distinct]
        assert len(dictionary) == distinct
    assert calls[SMALL] == calls[LARGE], calls
    assert 0 < calls[LARGE] < 100


@SPANS
def test_named_chunk_leaves_the_forward_map_to_its_first_read(stride):
    """An all-new named chunk on an empty dictionary names its keys in one
    call and enters none of them in the forward map until a read asks."""
    dictionary, values = KeyDictionary(), _all_new_chunk(SMALL, stride)
    names = _CountedNamer()
    ids = dictionary.intern_mapped_array(values, names)
    assert names.calls == [SMALL]
    assert len(dictionary) == SMALL
    assert not dictionary._key_index
    assert dictionary.lookup(f"key-{int(values[-1]):07d}") == ids[-1] == SMALL - 1
    assert len(dictionary._key_index) == SMALL


def _ns_per_new_key(distinct: int, stride: int) -> float:
    values = _all_new_chunk(distinct, stride)
    best = float("inf")
    for _ in range(5):
        dictionary = KeyDictionary()
        started = time.perf_counter()
        dictionary.intern_int_array(values)
        best = min(best, time.perf_counter() - started)
        assert len(dictionary) == distinct
    return best / distinct * 1e9


@SPANS
def test_cost_per_new_key_is_flat_in_chunk_size(stride):
    """A new key costs about the same in a chunk of 200,000 as in one of 2,000.

    Not a flaky timing test: both sides run in this process, back to back,
    best of five, and the bound is a *ratio* with margin on both sides — a
    sort's log factor and a forward map that outgrows the cache measure
    1.5-1.8 here, while a per-chunk step that is quadratic in the new keys
    (a list membership test, a dict drained from the front) reads in the
    hundreds; the assertion sits at 3.
    """
    small = _ns_per_new_key(SMALL, stride)
    large = _ns_per_new_key(LARGE, stride)
    assert large / small < 3.0, f"{small:.0f} ns at 2,000, {large:.0f} ns at 200,000"


#: Bytes per key an all-new 200,000-key integer chunk may allocate at its
#: peak.  The chunk's own arrays (dedupe table, inverse, key and fold
#: columns, the keys' ``int`` objects) read ~113; a 200,000-entry dict is
#: ~52 by itself, so a chunk that also built the forward map would cross
#: the bound (the parent of the lazy map read ~269).
PEAK_BYTES_PER_KEY = 150


def _traced_peak(function) -> int:
    """Peak bytes ``tracemalloc`` sees while ``function`` runs."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        function()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


@SPANS
def test_int_chunk_leaves_the_forward_map_to_its_first_read(stride):
    """An all-new integer chunk appends ids, keys and folds and enters no
    key in the forward map: no bench trial, engine or runtime source asks
    ``key -> id``.  The first key-addressed read catches the map up."""
    dictionary, values = KeyDictionary(), _all_new_chunk(LARGE, stride)
    peak = _traced_peak(lambda: dictionary.intern_int_array(values))
    assert peak < PEAK_BYTES_PER_KEY * LARGE, f"{peak / LARGE:.0f} bytes per key"
    assert len(dictionary) == LARGE
    assert not dictionary._key_index
    # The margin is smaller than the map the chunk no longer builds.
    table = sys.getsizeof(dict.fromkeys(range(LARGE)))
    assert peak + table > PEAK_BYTES_PER_KEY * LARGE
    assert dictionary.lookup(int(values[-1])) == LARGE - 1
    assert len(dictionary._key_index) == LARGE
