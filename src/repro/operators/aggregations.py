"""A per-key count designed for split (partial) state.

The aggregator folds messages into a per-key accumulator *and* knows how to
merge two accumulators of the same key.  Merge-ability is what makes the
paper's multi-choice groupings usable for stateful operators: the partial
counts of a key that ended up on different workers add up to the exact
global count.  Counting is the one fold every figure, example and benchmark
runs (word count, trending topics).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.operators.base import StatefulOperator
from repro.types import Key


class CountAggregator(StatefulOperator):
    """Counts occurrences per key.

    Examples
    --------
    >>> counter = CountAggregator()
    >>> counter.update("a", None); counter.update("a", None)
    >>> counter.result("a")
    2
    """

    def update(self, key: Key, value: object) -> None:
        current = self.state.get(key, int)
        self.state.put(key, current + 1)

    def update_batch(self, items: Sequence[tuple[Key, object]]) -> None:
        """Bulk count: one Counter pass, then one state access per key.

        Counting is associative and commutative over the integers, so the
        per-key pre-reduction yields exactly the state of the scalar loop.
        """
        counts = Counter(key for key, _ in items)
        state = self.state
        for key, added in counts.items():
            state.put(key, (state.peek(key) or 0) + added)

    def update_batch_ids(self, ids, dictionary) -> None:
        """Bulk count over interned key-ids: one Counter pass in id space,
        then one decode and one state access per *distinct* key.

        ``Counter`` iterates in first-arrival order (dict insertion order),
        so new keys enter the state exactly where the scalar loop would put
        them.
        """
        counts = Counter(ids)
        state = self.state
        key_of = dictionary.key_of
        for kid, added in counts.items():
            key = key_of(kid)
            state.put(key, (state.peek(key) or 0) + added)

    def result(self, key: Key) -> int:
        return int(self.state.peek(key) or 0)

    @staticmethod
    def merge(left: int, right: int) -> int:
        return left + right
