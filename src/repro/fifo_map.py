"""The one bounded map: a ``dict`` that forgets its oldest key when full.

Every cache that keeps a bound — candidate tuples and head hash prefixes in
:mod:`repro.hashing.hash_family`, a dictionary's tables per hash identity in
:mod:`repro.workloads.columnar`, head candidate tuples in
:mod:`repro.partitioning.head_tail`, ring owners in
:mod:`repro.partitioning.consistent_grouping` — is a :class:`FifoMap`, and
the eviction policy lives here only (``tests/ci/test_single_eviction_site.py``
holds that).  The spelling it replaces, ``del d[next(iter(d))]``, is not
O(1): CPython's dict iterator steps over the tombstone of every key deleted
from the front since the last resize, so a map kept at capacity ``C`` paid up
to ``C`` steps per eviction.  Here the insertion order is a ``deque`` beside
the dict — it grows with occupancy, never to the bound up front — and the
victim is one ``popleft``.  ``docs/performance.md`` has the measurement and
the structures not taken.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class FifoMap(dict[K, V]):
    """A ``dict`` of at most ``capacity`` (>= 1) keys, evicted first in, first out.

    Reads are the dict's own (``get``, ``[]``, ``in``, ``len``, iteration,
    ``==``): a hit path pays no Python-level call.  New keys enter through
    :meth:`insert` only; ``d[key] = value`` may overwrite a live key but must
    not introduce one, and keys leave by eviction or :meth:`clear` only.
    """

    __slots__ = ("_capacity", "_order")

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self._capacity = capacity
        self._order: deque[K] = deque()

    def insert(self, key: K, value: V) -> K | None:
        """Map ``key`` to ``value``; returns the key evicted for it, if any.

        A full map drops its oldest key to admit a new one.  Overwriting a
        live key keeps its position and evicts nothing.  ``None`` means no
        eviction, so ``None`` is not a usable key.
        """
        victim = None
        if key not in self:
            order = self._order
            if len(self) >= self._capacity:
                victim = order.popleft()
                del self[victim]
            order.append(key)
        self[key] = value
        return victim

    def clear(self) -> None:
        super().clear()
        self._order.clear()
