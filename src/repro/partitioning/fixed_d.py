"""Head/tail partitioner with a *fixed* number of choices for the head.

This is the scheme the Figure 9 experiment sweeps: instead of letting the
constraint solver pick ``d`` (as D-Choices does), the head keys always get
exactly ``num_choices`` hash-derived candidates, while the tail keeps the two
PKG choices.  Sweeping ``num_choices`` from 2 to ``n`` and comparing the
resulting imbalance with W-Choices yields the empirical minimum ``d`` that
the analytical solver is validated against.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.partitioning.head_tail import HeadTailPartitioner
from repro.types import Key, RoutingDecision, WorkerId


class FixedDHead(HeadTailPartitioner):
    """Greedy-d on the head with a caller-chosen ``d``; PKG on the tail.

    Examples
    --------
    >>> scheme = FixedDHead(num_workers=10, num_choices=3, warmup_messages=0)
    >>> workers = {scheme.route("hot") for _ in range(200)}
    >>> len(workers) <= 3
    True
    """

    name = "FIXED-D"

    def __init__(
        self,
        num_workers: int,
        num_choices: int,
        theta: float | None = None,
        seed: int = 0,
        warmup_messages: int = 100,
    ) -> None:
        super().__init__(
            num_workers,
            theta=theta,
            seed=seed,
            warmup_messages=warmup_messages,
        )
        if num_choices < 2:
            raise ConfigurationError(
                f"num_choices must be >= 2, got {num_choices}"
            )
        self._requested_choices = num_choices
        self._num_choices = min(num_choices, num_workers)

    @property
    def num_choices(self) -> int:
        return self._num_choices

    def _head_selection(self) -> tuple[str, int]:
        return ("d", self._num_choices)

    def _select_head(self, key: Key) -> RoutingDecision:
        candidates = self._head_candidates(key, self._num_choices)
        worker = self._least_loaded(candidates)
        return RoutingDecision(
            key=key, worker=worker, candidates=candidates, is_head=True
        )

    def _select_head_worker(self, kid: int) -> WorkerId:
        candidates = self._cached_head_candidates(kid, self._num_choices)
        return self._least_loaded(candidates)

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        super()._rescale_structures(old_num_workers, new_num_workers)
        self._num_choices = min(self._requested_choices, new_num_workers)

    def _head_key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        return self._head_candidates(key, self._num_choices)
