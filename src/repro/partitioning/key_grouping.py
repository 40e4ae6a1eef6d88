"""Key grouping (KG): hash each key to exactly one worker.

This is Storm's "fields grouping" and the MapReduce-style default for
stateful operators.  All state for a key lives on a single worker, so there
is no aggregation cost, but skewed keys directly translate into load
imbalance — the baseline the paper improves upon.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.hash_family import HashFamily
from repro.partitioning.base import Partitioner
from repro.types import Key, RoutingDecision, WorkerId


class KeyGrouping(Partitioner):
    """Single-choice hashing: ``P(k) = F_1(k)``.

    Examples
    --------
    >>> kg = KeyGrouping(num_workers=4, seed=1)
    >>> kg.route("user-42") == kg.route("user-42")   # sticky per key
    True
    """

    name = "KG"

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        super().__init__(num_workers, seed)
        self._hashes = HashFamily(num_functions=1, num_buckets=num_workers, seed=seed)

    def _select(self, key: Key) -> RoutingDecision:
        worker = self._hashes.candidates(key, 1)[0]
        return RoutingDecision(key=key, worker=worker, candidates=(worker,))

    def _select_worker(self, key: Key) -> WorkerId:
        return self._hashes.candidates(key, 1)[0]

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        # Single-choice modulo hashing has no incremental form: the hash
        # family is rebuilt and (almost) every key changes owner.
        self._hashes = HashFamily(
            num_functions=1, num_buckets=new_num_workers, seed=self.seed
        )

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        return self._hashes.candidates(key, 1)

    def _route_ids(self, ids):
        # KG is stateless per message, so the whole batch vectorizes: one
        # table gather, one bincount to update the load vector.
        workers = self._hashes.id_candidate_rows(ids, self._id_dict, 1)[:, 0]
        state = self._state
        counts = np.bincount(workers, minlength=self._num_workers).tolist()
        loads = state.loads
        for worker, count in enumerate(counts):
            if count:
                loads[worker] += count
        state.messages_routed += int(workers.size)
        return workers, None
