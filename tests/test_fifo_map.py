"""``FifoMap`` against the spelling it replaced, on seeded random scripts.

The reference is a plain dict bounded the way seven sites used to bound
theirs — ``del d[next(iter(d))]`` before admitting a new key — and shares no
code with the map.  Capacities 1-40 over key spaces of 1-80 keys make every
script evict, overwrite and clear many times over; the whole observable
state (contents *in order*, and the victim each insert names) is compared
after every operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fifo_map import FifoMap


class Reference:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.data: dict = {}

    def insert(self, key, value):
        victim = None
        if key not in self.data and len(self.data) >= self.capacity:
            victim = next(iter(self.data))
            del self.data[victim]
        self.data[key] = value
        return victim


@pytest.mark.parametrize("seed", [0, 1, 2016])
def test_matches_the_plain_dict_reference(seed):
    rng = np.random.default_rng(seed)
    for capacity in range(1, 41):
        fifo, reference = FifoMap(capacity), Reference(capacity)
        key_space = int(rng.integers(1, 81))
        evictions = overwrites = 0
        for step in range(600):
            if rng.random() < 0.01:
                fifo.clear()
                reference.data.clear()
                assert not fifo and len(fifo) == 0
            key = int(rng.integers(key_space))
            overwrites += key in fifo
            victim = fifo.insert(key, step)
            assert victim == reference.insert(key, step)
            evictions += victim is not None
            assert victim not in fifo
            assert list(fifo.items()) == list(reference.data.items())
            assert fifo.get(key) == fifo[key] == step
            assert len(fifo) <= capacity
        assert overwrites
        assert evictions or key_space <= capacity


def test_overwrite_keeps_position_and_evicts_nothing():
    fifo = FifoMap(3)
    for key in "abc":
        assert fifo.insert(key, 0) is None
    assert fifo.insert("a", 1) is None  # full, but "a" is live
    assert list(fifo.items()) == [("a", 1), ("b", 0), ("c", 0)]
    assert fifo.insert("d", 0) == "a"  # ...and still the oldest
    fifo["b"] = 2  # a plain store over a live key is an overwrite too
    assert fifo.insert("e", 0) == "b"
    assert fifo == {"c": 0, "d": 0, "e": 0}


def test_insert_after_clear_starts_a_fresh_order():
    fifo = FifoMap(2)
    fifo.insert(1, "x")
    fifo.insert(2, "x")
    fifo.clear()
    assert fifo.insert(3, "y") is None and fifo.insert(1, "y") is None
    assert fifo.insert(2, "y") == 3
    assert list(fifo) == [1, 2]


def test_order_store_grows_with_occupancy_not_with_the_bound():
    fifo = FifoMap(1 << 30)
    for key in range(5):
        fifo.insert(key, key)
    assert len(fifo._order) == 5
