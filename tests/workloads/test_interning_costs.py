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

import sys
import time

import numpy as np

from repro.workloads.columnar import KeyDictionary

SMALL, LARGE = 2_000, 200_000


def _all_new_chunk(distinct: int) -> np.ndarray:
    """``distinct`` keys, each once, in an order ``np.unique`` has to undo."""
    return np.random.default_rng(distinct).permutation(distinct)


def _python_calls(function) -> int:
    """Python-level calls made while ``function`` runs (C calls not counted)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return count


def _fixed_width_name(value: int) -> str:
    # One width at both sizes: the vectorised fold makes one more numpy
    # call when a chunk has a key past 8 bytes, which is per chunk, not per
    # key, but would blur the exact equality below.
    return f"key-{value:07d}"


def test_int_chunk_makes_no_python_call_per_key():
    """An all-new integer chunk costs the same number of Python-level calls
    at 2,000 and at 200,000 distinct keys (the per-key walk it replaced
    read 4,023 and 400,023: an ``issue()`` closure and a ``_forward_key``
    per key)."""
    calls = {}
    for distinct in (SMALL, LARGE):
        dictionary, values = KeyDictionary(), _all_new_chunk(distinct)
        calls[distinct] = _python_calls(lambda: dictionary.intern_int_array(values))
        assert len(dictionary) == distinct
    assert calls[SMALL] == calls[LARGE], calls
    assert calls[LARGE] < 100  # ... and that number is a handful of numpy wrappers


def test_mapped_chunk_calls_only_key_fn_per_key():
    """With a naming ``key_fn`` the count is its one call per distinct value
    plus a constant: lookup, ordering, entry, store and fold are per chunk
    (the walk added ``issue()``, ``_forward_key`` and ``_key_to_int`` per key)."""
    overhead = {}
    for distinct in (SMALL, LARGE):
        dictionary, values = KeyDictionary(), _all_new_chunk(distinct)
        overhead[distinct] = (
            _python_calls(
                lambda: dictionary.intern_mapped_array(values, _fixed_width_name)
            )
            - distinct
        )
        assert len(dictionary) == distinct
    assert overhead[SMALL] == overhead[LARGE], overhead
    assert 0 < overhead[LARGE] < 100


def _ns_per_new_key(distinct: int) -> float:
    values = _all_new_chunk(distinct)
    best = float("inf")
    for _ in range(5):
        dictionary = KeyDictionary()
        started = time.perf_counter()
        dictionary.intern_int_array(values)
        best = min(best, time.perf_counter() - started)
        assert len(dictionary) == distinct
    return best / distinct * 1e9


def test_cost_per_new_key_is_flat_in_chunk_size():
    """A new key costs about the same in a chunk of 200,000 as in one of 2,000.

    Not a flaky timing test: both sides run in this process, back to back,
    best of five, and the bound is a *ratio* with margin on both sides — a
    sort's log factor and a forward map that outgrows the cache measure
    1.5-1.8 here, while a per-chunk step that is quadratic in the new keys
    (a list membership test, a dict drained from the front) reads in the
    hundreds; the assertion sits at 3.
    """
    small = _ns_per_new_key(SMALL)
    large = _ns_per_new_key(LARGE)
    assert large / small < 3.0, f"{small:.0f} ns at 2,000, {large:.0f} ns at 200,000"
