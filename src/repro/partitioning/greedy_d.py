"""The Greedy-d process: least-loaded among ``d`` hash-derived candidates.

Section III-B defines Greedy-d as the common primitive behind PKG (d = 2),
D-Choices (d >= 2 for the head) and, in the limit, W-Choices.  The standalone
:class:`GreedyD` partitioner applies a *fixed* ``d`` to every key; it is used

* as a building block by the head/tail schemes,
* by the Figure 9 experiment that searches for the empirically minimal ``d``,
* and as an ablation baseline ("what if we simply gave every key d choices?").
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hashing.hash_family import HashFamily
from repro.partitioning.base import Partitioner
from repro.types import Key, WorkerId


class GreedyD(Partitioner):
    """Least-loaded of ``d`` candidates, for every key.

    Examples
    --------
    >>> greedy = GreedyD(num_workers=10, num_choices=4, seed=0)
    >>> workers = {greedy.route("k") for _ in range(100)}
    >>> len(workers) <= 4
    True
    """

    name = "GREEDY-D"

    def __init__(self, num_workers: int, num_choices: int, seed: int = 0) -> None:
        super().__init__(num_workers, seed)
        if num_choices < 1:
            raise ConfigurationError(
                f"num_choices must be >= 1, got {num_choices}"
            )
        # Remember what the caller asked for so a later grow can lift the
        # cap again (rescale re-derives the effective d from it).
        self._requested_choices = num_choices
        if num_choices > num_workers:
            # More choices than workers is pointless: cap at n, which makes
            # the scheme behave (almost) like least-loaded-of-all.
            num_choices = num_workers
        self._num_choices = num_choices
        self._hashes = HashFamily(
            num_functions=num_choices, num_buckets=num_workers, seed=seed
        )

    @property
    def num_choices(self) -> int:
        return self._num_choices

    def _select_worker(self, key: Key) -> WorkerId:
        return self._least_loaded(self._hashes.candidates(key, self._num_choices))

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        self._num_choices = min(self._requested_choices, new_num_workers)
        self._hashes = HashFamily(
            num_functions=self._num_choices,
            num_buckets=new_num_workers,
            seed=self.seed,
        )

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        return self._hashes.candidates(key, self._num_choices)

    def _route_ids(self, ids):
        rows = self._hashes.id_candidate_rows(
            ids, self._id_dict, self._num_choices
        ).tolist()
        state = self._state
        loads = state.loads
        out: list[WorkerId] = []
        append = out.append
        for row in rows:
            # Scan via an iterator rather than row[1:]: the slice would
            # allocate a fresh list per message just to drop the head.
            scan = iter(row)
            best = next(scan)
            best_load = loads[best]
            for candidate in scan:
                load = loads[candidate]
                if load < best_load:
                    best = candidate
                    best_load = load
            loads[best] += 1
            append(best)
        state.messages_routed += len(out)
        return np.fromiter(out, np.int64, len(out)), None
