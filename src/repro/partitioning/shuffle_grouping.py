"""Shuffle grouping (SG): round-robin assignment, ignoring keys.

SG gives ideal load balance but forces every worker to potentially hold
state for every key, so its memory (and aggregation) cost grows with the
number of workers — the other extreme the paper positions itself against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.partitioning.base import Partitioner
from repro.types import Key, WorkerId


class ShuffleGrouping(Partitioner):
    """Round-robin over the workers, starting at a seed-dependent offset.

    Examples
    --------
    >>> sg = ShuffleGrouping(num_workers=3, seed=0)
    >>> [sg.route("any") for _ in range(4)]
    [0, 1, 2, 0]
    """

    name = "SG"

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        super().__init__(num_workers, seed)
        # Different sources start at different offsets so that the first
        # message of every source does not pile onto worker 0.
        self._next = seed % num_workers

    def _select_worker(self, key: Key) -> WorkerId:
        worker = self._next
        self._next = (worker + 1) % self.num_workers
        return worker

    def route_batch(
        self, keys: Sequence[Key], head_flags: list[bool] | None = None
    ) -> list[WorkerId]:
        # SG never reads the key, so there is nothing to intern: only the
        # batch length reaches the kernel.
        return self._listed(self._route_ids(range(len(keys))), head_flags)

    def _route_ids(self, ids):
        # Round-robin ignores the keys entirely: the batch is an arithmetic
        # sequence mod n and the load vector update is closed-form.
        count = len(ids)
        n = self._num_workers
        start = self._next
        out = (start + np.arange(count)) % n
        self._next = (start + count) % n
        state = self._state
        loads = state.loads
        full_rounds, remainder = divmod(count, n)
        if full_rounds:
            for worker in range(n):
                loads[worker] += full_rounds
        for offset in range(remainder):
            loads[(start + offset) % n] += 1
        state.messages_routed += count
        return out, None

    def reset(self) -> None:
        super().reset()
        self._next = self.seed % self.num_workers

    def _export_structures(self, state: dict) -> None:
        state["round_robin_cursor"] = self._next

    def _adopt_structures(self, state) -> None:
        cursor = state.get("round_robin_cursor")
        if cursor is not None:
            self._next = cursor % self.num_workers

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        # Round-robin has no key affinity; only the cursor must stay in
        # range.  key_candidates stays the base "no affinity" empty tuple,
        # so shuffle-grouped keys never count as moved.
        self._next %= new_num_workers
