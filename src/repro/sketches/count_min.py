"""Count-Min sketch (Cormode & Muthukrishnan, 2005).

A linear sketch of ``depth x width`` counters.  Each key is hashed by
``depth`` independent functions; its estimate is the minimum of the touched
counters.  Estimates never underestimate; the overestimation is at most
``e/width * total`` with probability ``1 - e^-depth``.

Because a Count-Min sketch cannot enumerate the keys it has seen, heavy
hitter queries need a candidate set.  We keep a small exact candidate heap of
the keys with the largest estimates (the standard "CM + heap" construction),
which is enough to drive the head detection of D-Choices in ablations.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from repro.exceptions import ConfigurationError, SketchError
from repro.hashing.hash_family import stable_hash
from repro.sketches.base import FrequencyEstimate, FrequencyEstimator
from repro.types import Key


class CountMinSketch(FrequencyEstimator):
    """Count-Min sketch with a top-k candidate heap for heavy-hitter queries.

    Parameters
    ----------
    width:
        Number of counters per row; error is about ``total / width``.
    depth:
        Number of rows (independent hash functions).
    top_k:
        Size of the exact candidate set kept for heavy-hitter enumeration.
    seed:
        Seed of the row hash functions.
    """

    def __init__(self, width: int, depth: int = 4, top_k: int = 64, seed: int = 0) -> None:
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self._width = width
        self._depth = depth
        self._top_k = top_k
        self._seed = seed
        self._rows = [[0] * width for _ in range(depth)]
        self._total = 0
        # Exact estimates for the current candidate heavy hitters.
        self._candidates: dict[Key, int] = {}

    @classmethod
    def for_error(cls, epsilon: float, delta: float = 0.01, top_k: int = 64,
                  seed: int = 0) -> "CountMinSketch":
        """Size the sketch for additive error ``epsilon*total`` w.p. ``1-delta``."""
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        width = int(math.ceil(math.e / epsilon))
        depth = int(math.ceil(math.log(1.0 / delta)))
        return cls(width=width, depth=max(1, depth), top_k=top_k, seed=seed)

    @property
    def total(self) -> int:
        return self._total

    def reset(self) -> None:
        """Zero every cell in place (width/depth/seed are kept)."""
        for row in self._rows:
            for index in range(len(row)):
                row[index] = 0
        self._candidates.clear()
        self._total = 0

    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    def _indexes(self, key: Key) -> list[int]:
        return [
            stable_hash(key, self._seed + row * 0x9E3779B9) % self._width
            for row in range(self._depth)
        ]

    def add(self, key: Key, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self._total += count
        estimate = math.inf
        for row, index in enumerate(self._indexes(key)):
            self._rows[row][index] += count
            estimate = min(estimate, self._rows[row][index])
        self._update_candidates(key, int(estimate))

    def _update_candidates(self, key: Key, estimate: int) -> None:
        if key in self._candidates or len(self._candidates) < self._top_k:
            self._candidates[key] = estimate
            return
        # Replace the smallest candidate when the new estimate beats it.
        smallest_key = min(self._candidates, key=self._candidates.__getitem__)
        if estimate > self._candidates[smallest_key]:
            del self._candidates[smallest_key]
            self._candidates[key] = estimate

    def add_and_classify_batch(
        self,
        keys,
        threshold: float,
        warmup: int = 0,
        tail_out: list | None = None,
    ) -> list[bool]:
        """Fused bulk update + head classification (see the base contract).

        The ``depth`` row hashes are by far the dominant cost of a Count-Min
        update, and the reference ``add`` + ``estimate`` loop pays them
        twice per message.  Here the estimate is the minimum of the cells
        the add itself just incremented — the same value ``estimate`` would
        recompute — so each message is hashed once.
        """
        flags: list[bool] = []
        append = flags.append
        rows = self._rows
        update_candidates = self._update_candidates
        indexes = self._indexes
        total = self._total
        tail_append = tail_out.append if tail_out is not None else None
        for key in keys:
            total += 1
            estimate = math.inf
            for row, index in enumerate(indexes(key)):
                cells = rows[row]
                value = cells[index] + 1
                cells[index] = value
                if value < estimate:
                    estimate = value
            estimate = int(estimate)
            update_candidates(key, estimate)
            is_head = total >= warmup and estimate >= threshold * total
            append(is_head)
            if not is_head and tail_append is not None:
                tail_append(key)
        self._total = total
        return flags

    def estimate(self, key: Key) -> int:
        return min(self._rows[row][index] for row, index in enumerate(self._indexes(key)))

    def entries(self) -> Iterator[FrequencyEstimate]:
        for key in self._candidates:
            yield FrequencyEstimate(key, self.estimate(key), 0)

    def top(self, k: int) -> list[FrequencyEstimate]:
        """The ``k`` candidates with the largest estimates."""
        entries = list(self.entries())
        return heapq.nlargest(k, entries, key=lambda entry: entry.count)
