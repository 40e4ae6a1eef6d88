"""Consistent-hashing grouping (related-work baseline).

Related work on stateful stream partitioning (e.g. Gedik, VLDBJ 2014) builds
on consistent hashing: each key is owned by the worker whose virtual node
follows the key's position on a hash ring.  Compared with plain key grouping
the assignment is identical in the static case (single owner per key, so the
same skew problems), but workers can be added or removed with minimal key
movement — the property those migration-based systems rely on.

The scheme is included as a baseline and as a building block for users who
want to experiment with rebalancing extensions; it is *not* part of the
paper's evaluation line-up.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fifo_map import FifoMap
from repro.hashing.consistent import ConsistentHashRing
from repro.partitioning.base import Partitioner
from repro.types import Key, RoutingDecision, WorkerId


class ConsistentGrouping(Partitioner):
    """Single-owner grouping backed by a consistent-hash ring.

    Examples
    --------
    >>> scheme = ConsistentGrouping(num_workers=8, seed=3)
    >>> scheme.route("user-1") == scheme.route("user-1")
    True
    """

    name = "CH"

    #: Cap on the per-id owner cache of the columnar path (FIFO-evicted).
    _ID_OWNER_CACHE_LIMIT = 1 << 16

    def __init__(self, num_workers: int, seed: int = 0, replicas: int = 64) -> None:
        super().__init__(num_workers, seed)
        self._ring = ConsistentHashRing(range(num_workers), replicas=replicas, seed=seed)
        # Columnar fast path: ring lookups memoised per key id.  The cache
        # is only valid for one (dictionary, ring-layout) pair; _ring_epoch
        # advances on every ring mutation to invalidate it.
        self._ring_epoch = 0
        self._id_owner_cache: FifoMap[int, WorkerId] = FifoMap(
            self._ID_OWNER_CACHE_LIMIT
        )
        self._id_owner_tag: tuple[int, int] | None = None

    @property
    def ring(self) -> ConsistentHashRing:
        return self._ring

    def _select(self, key: Key) -> RoutingDecision:
        worker = self._ring.lookup(key)
        return RoutingDecision(key=key, worker=worker, candidates=(worker,))

    def _route_ids(self, ids):
        dictionary = self._id_dict
        tag = (dictionary.token, self._ring_epoch)
        cache = self._id_owner_cache
        if self._id_owner_tag != tag:
            cache.clear()
            self._id_owner_tag = tag
        lookup = self._ring.lookup
        key_of = dictionary.key_of
        state = self._state
        loads = state.loads
        out: list[WorkerId] = []
        append = out.append
        for kid in ids.tolist():
            worker = cache.get(kid)
            if worker is None:
                worker = lookup(key_of(kid))
                cache.insert(kid, worker)
            loads[worker] += 1
            append(worker)
        state.messages_routed += len(out)
        return np.fromiter(out, np.int64, len(out)), None

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        # The whole point of the ring: joining workers only steal the arcs
        # of their own virtual nodes, leaving workers only release theirs —
        # every other key keeps its owner.
        self._ring_epoch += 1
        if new_num_workers > old_num_workers:
            for worker in range(old_num_workers, new_num_workers):
                if worker not in self._ring:
                    self._ring.add_worker(worker)
        else:
            for worker in range(new_num_workers, old_num_workers):
                if worker in self._ring:
                    self._ring.remove_worker(worker)

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        return (self._ring.lookup(key),)

    def _export_structures(self, state: dict) -> None:
        # Arc positions are a pure function of (worker, replica, seed), so
        # ring *membership* is the whole mutable state: an adopter with the
        # same seed rebuilds identical arcs for the same member set.
        state["ring_workers"] = [
            worker for worker in range(self.num_workers) if worker in self._ring
        ]

    def _adopt_structures(self, state) -> None:
        members = state.get("ring_workers")
        if members is None:
            return
        target = set(members)
        changed = False
        for worker in range(self.num_workers):
            if worker in target and worker not in self._ring:
                self._ring.add_worker(worker)
                changed = True
            elif worker not in target and worker in self._ring:
                self._ring.remove_worker(worker)
                changed = True
        if changed:
            self._ring_epoch += 1

    # ------------------------------------------------------------------ #
    # elasticity hooks (not used by the paper's experiments, but the whole
    # point of consistent hashing)
    # ------------------------------------------------------------------ #
    def remove_worker(self, worker: WorkerId) -> None:
        """Take a worker out of rotation; its keys move to ring successors."""
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(
                f"worker {worker} outside [0, {self.num_workers})"
            )
        self._ring_epoch += 1
        self._ring.remove_worker(worker)

    def restore_worker(self, worker: WorkerId) -> None:
        """Put a previously removed worker back on the ring."""
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(
                f"worker {worker} outside [0, {self.num_workers})"
            )
        self._ring_epoch += 1
        self._ring.add_worker(worker)
