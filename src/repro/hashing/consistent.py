"""Consistent hashing ring with virtual nodes.

The related-work section of the paper mentions hybrid schemes built on
consistent hashing (Gedik, VLDBJ 2014).  A consistent-hash ring is included
here both as a baseline grouping substrate (it behaves like key grouping with
smoother redistribution when workers join/leave) and as a building block for
users who want to extend the library with migration-based balancers.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.exceptions import ConfigurationError
from repro.hashing.hash_family import stable_hash
from repro.types import Key, WorkerId


class ConsistentHashRing:
    """A ring of workers, each represented by ``replicas`` virtual nodes.

    Examples
    --------
    >>> ring = ConsistentHashRing(range(4), replicas=32, seed=7)
    >>> worker = ring.lookup("some-key")
    >>> worker in set(range(4))
    True
    >>> ring.lookup("some-key") == worker
    True
    """

    def __init__(
        self,
        workers: Iterable[WorkerId] = (),
        replicas: int = 64,
        seed: int = 0,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._seed = seed
        self._ring: list[int] = []           # sorted virtual-node positions
        self._owners: dict[int, WorkerId] = {}  # position -> worker
        self._workers: set[WorkerId] = set()
        for worker in workers:
            self.add_worker(worker)

    @property
    def workers(self) -> frozenset[WorkerId]:
        return frozenset(self._workers)

    @property
    def replicas(self) -> int:
        return self._replicas

    def _positions(self, worker: WorkerId) -> list[int]:
        # Virtual node ``replica`` of ``worker`` is the integer
        # ``worker * replicas + replica`` under a seed of its own: an integer
        # folds the same in every process, so the arcs do too.
        seed = stable_hash("vnode", self._seed)
        first = worker * self._replicas
        return [stable_hash(first + replica, seed) for replica in range(self._replicas)]

    def add_worker(self, worker: WorkerId) -> None:
        """Add ``worker`` and its virtual nodes to the ring."""
        if worker in self._workers:
            raise ConfigurationError(f"worker {worker!r} already on the ring")
        self._workers.add(worker)
        for position in self._positions(worker):
            # In the (astronomically unlikely) event of a position collision,
            # keep the first owner; lookups remain well defined.
            if position in self._owners:
                continue
            bisect.insort(self._ring, position)
            self._owners[position] = worker

    def remove_worker(self, worker: WorkerId) -> None:
        """Remove ``worker`` and its virtual nodes from the ring."""
        if worker not in self._workers:
            raise ConfigurationError(f"worker {worker!r} not on the ring")
        self._workers.remove(worker)
        for position in self._positions(worker):
            if self._owners.get(position) != worker:
                continue
            index = bisect.bisect_left(self._ring, position)
            del self._ring[index]
            del self._owners[position]

    def lookup(self, key: Key) -> WorkerId:
        """Return the worker owning ``key`` (first virtual node clockwise)."""
        if not self._ring:
            raise ConfigurationError("cannot look up a key on an empty ring")
        position = stable_hash(key, self._seed)
        index = bisect.bisect_right(self._ring, position)
        if index == len(self._ring):
            index = 0
        return self._owners[self._ring[index]]

    def lookup_many(self, key: Key, count: int) -> tuple[WorkerId, ...]:
        """Return up to ``count`` distinct workers walking clockwise from ``key``.

        Useful for replication-style extensions (a key and its backups).
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if not self._ring:
            raise ConfigurationError("cannot look up a key on an empty ring")
        found: list[WorkerId] = []
        position = stable_hash(key, self._seed)
        start = bisect.bisect_right(self._ring, position)
        for offset in range(len(self._ring)):
            owner = self._owners[self._ring[(start + offset) % len(self._ring)]]
            if owner not in found:
                found.append(owner)
            if len(found) == count or len(found) == len(self._workers):
                break
        return tuple(found)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker: WorkerId) -> bool:
        return worker in self._workers
