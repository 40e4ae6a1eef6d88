"""Round-Robin head placement (the load-oblivious baseline of Section III-B).

Head keys are spread over all ``n`` workers in round-robin order, ignoring
the current load; tail keys use the two PKG choices.  The memory cost is the
same as W-Choices, which is exactly why the paper uses it as the comparison
point for Q1: any gap between RR and W-C is attributable to load-awareness,
not to replication.
"""

from __future__ import annotations

from repro.partitioning.head_tail import HeadTailPartitioner
from repro.types import Key, RoutingDecision, WorkerId


class RoundRobinHead(HeadTailPartitioner):
    """Round-robin for heavy hitters, PKG for the tail.

    Examples
    --------
    >>> rr = RoundRobinHead(num_workers=3, seed=0, warmup_messages=0)
    >>> [rr.route("hot") for _ in range(6)][-3:]
    [0, 1, 2]
    """

    name = "RR"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._next_worker = 0

    def _select_head(self, key: Key) -> RoutingDecision:
        return RoutingDecision(key=key, worker=self._advance(), is_head=True)

    def _select_head_worker(self, kid: int) -> WorkerId:
        return self._advance()

    def _advance(self) -> WorkerId:
        # The head path reads only this cursor, which the kernel's "call"
        # mode advances in exact stream order; the key is ignored.
        worker = self._next_worker
        self._next_worker = (worker + 1) % self.num_workers
        return worker

    def reset(self) -> None:
        super().reset()
        self._next_worker = 0

    def _export_structures(self, state: dict) -> None:
        super()._export_structures(state)
        state["head_cursor"] = self._next_worker

    def _adopt_structures(self, state) -> None:
        super()._adopt_structures(state)
        cursor = state.get("head_cursor")
        if cursor is not None:
            self._next_worker = cursor % self.num_workers

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        super()._rescale_structures(old_num_workers, new_num_workers)
        # Head keys have full placement freedom (the base head candidate
        # set); only the round-robin cursor must stay in range.
        self._next_worker %= new_num_workers
