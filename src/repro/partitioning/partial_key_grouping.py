"""Partial Key Grouping (PKG) — the power of both choices (ICDE 2015).

Every key has exactly two candidate workers, ``F_1(k)`` and ``F_2(k)``;
each message goes to whichever of the two the *sender* believes is less
loaded.  State for a key is split across at most two workers, so stateful
operators need a two-way aggregation but no routing table.

PKG is the state of the art the paper extends: it balances well as long as
``p1 <= 2/n``, and Figure 1 / Figure 10 / Figure 11 show where it stops
working.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.hash_family import HashFamily
from repro.partitioning.base import Partitioner
from repro.types import Key, WorkerId


class PartialKeyGrouping(Partitioner):
    """Two-choice, load-aware hashing.

    Examples
    --------
    >>> pkg = PartialKeyGrouping(num_workers=4, seed=3)
    >>> decisions = {pkg.route("hot-key") for _ in range(100)}
    >>> len(decisions) <= 2    # a key never leaves its two candidates
    True
    """

    name = "PKG"

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        super().__init__(num_workers, seed)
        self._hashes = HashFamily(num_functions=2, num_buckets=num_workers, seed=seed)

    def _select_worker(self, key: Key) -> WorkerId:
        first, second = self._hashes.candidates(key, 2)
        loads = self._state.loads
        return first if loads[first] <= loads[second] else second

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        # Both hash functions are modulo the worker count, so a rescale
        # redraws the candidate pair of (almost) every key.
        self._hashes = HashFamily(
            num_functions=2, num_buckets=new_num_workers, seed=self.seed
        )

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        return self._hashes.candidates(key, 2)

    def _route_ids(self, ids):
        # Column-major candidates gathered from the per-id table: two flat
        # int lists instead of one small list per message, walked with zip
        # (whose result tuple CPython recycles) — the selection loop
        # allocates nothing per message.
        firsts, seconds = self._hashes.id_candidate_columns(ids, self._id_dict, 2)
        state = self._state
        loads = state.loads
        out: list[WorkerId] = []
        append = out.append
        for first, second in zip(firsts, seconds):
            worker = first if loads[first] <= loads[second] else second
            loads[worker] += 1
            append(worker)
        state.messages_routed += len(out)
        return np.fromiter(out, np.int64, len(out)), None
