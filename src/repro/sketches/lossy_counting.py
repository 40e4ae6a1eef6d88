"""Lossy Counting (Manku & Motwani, VLDB 2002).

The stream is conceptually divided into windows of ``ceil(1/epsilon)`` items.
Each monitored key carries a count and a maximum-error term equal to the
window index when it was (re)inserted.  At window boundaries, keys whose
``count + error`` falls below the current window index are dropped.

Guarantees: estimated count underestimates by at most ``epsilon * total``,
and every key with true frequency above ``epsilon`` survives.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.exceptions import ConfigurationError, SketchError
from repro.sketches.base import FrequencyEstimate, FrequencyEstimator
from repro.types import Key


class LossyCounting(FrequencyEstimator):
    """Epsilon-deficient frequency counting.

    Examples
    --------
    >>> sketch = LossyCounting(epsilon=0.1)
    >>> sketch.add_all(["x"] * 60 + ["y"] * 30 + list(map(str, range(10))))
    >>> "x" in sketch.heavy_hitters(0.5)
    True
    """

    def __init__(self, epsilon: float) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        self._epsilon = epsilon
        self._window = int(math.ceil(1.0 / epsilon))
        self._total = 0
        self._current_window = 1
        # key -> (count, max_error)
        self._counters: dict[Key, tuple[int, int]] = {}

    @property
    def total(self) -> int:
        return self._total

    @property
    def epsilon(self) -> float:
        return self._epsilon

    def __len__(self) -> int:
        return len(self._counters)

    def reset(self) -> None:
        """Forget every counter in place (epsilon/window are kept)."""
        self._counters.clear()
        self._total = 0
        self._current_window = 1

    def add(self, key: Key, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        for _ in range(count):
            self._add_one(key)

    def _add_one(self, key: Key) -> None:
        self._total += 1
        if key in self._counters:
            current, error = self._counters[key]
            self._counters[key] = (current + 1, error)
        else:
            self._counters[key] = (1, self._current_window - 1)
        if self._total % self._window == 0:
            self._prune()
            self._current_window += 1

    def _prune(self) -> None:
        survivors = {
            key: (count, error)
            for key, (count, error) in self._counters.items()
            if count + error > self._current_window
        }
        self._counters = survivors

    def add_and_classify_batch(
        self,
        keys,
        threshold: float,
        warmup: int = 0,
        tail_out: list | None = None,
    ) -> list[bool]:
        """Fused bulk update + head classification (see the base contract).

        Inlines :meth:`_add_one`; at window boundaries the prune may evict
        the key that was just inserted, so the counter is re-read after the
        prune (and the local dict alias refreshed — ``_prune`` rebuilds the
        mapping) to keep the flags identical to ``add`` + ``estimate``.
        """
        flags: list[bool] = []
        append = flags.append
        counters = self._counters
        window = self._window
        total = self._total
        tail_append = tail_out.append if tail_out is not None else None
        for key in keys:
            total += 1
            entry = counters.get(key)
            if entry is not None:
                count = entry[0] + 1
                counters[key] = (count, entry[1])
            else:
                count = 1
                counters[key] = (1, self._current_window - 1)
            if not total % window:
                self._total = total
                self._prune()
                self._current_window += 1
                counters = self._counters
                entry = counters.get(key)
                count = entry[0] if entry is not None else 0
            is_head = total >= warmup and count >= threshold * total
            append(is_head)
            if not is_head and tail_append is not None:
                tail_append(key)
        self._total = total
        return flags

    def estimate(self, key: Key) -> int:
        entry = self._counters.get(key)
        return entry[0] if entry is not None else 0

    def error(self, key: Key) -> int:
        entry = self._counters.get(key)
        return entry[1] if entry is not None else 0

    def entries(self) -> Iterator[FrequencyEstimate]:
        for key, (count, error) in self._counters.items():
            yield FrequencyEstimate(key, count, 0)

    def heavy_hitters(self, threshold: float) -> dict[Key, int]:
        """Keys with estimated frequency at least ``threshold - epsilon``.

        The epsilon slack compensates the (one-sided) underestimation so the
        result has no false negatives, as in the original paper.
        """
        if self.total == 0:
            return {}
        cutoff = (threshold - self._epsilon) * self.total
        return {
            key: count
            for key, (count, error) in self._counters.items()
            if count >= cutoff
        }
