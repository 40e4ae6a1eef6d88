"""The Misra-Gries frequent-elements algorithm (1982).

Misra-Gries keeps at most ``capacity`` counters.  A new key takes a free
counter; when none is free, *every* counter is decremented and zeroed
counters are released.  The estimate underestimates the true count by at most
``total / (capacity + 1)``.

Included as an ablation alternative to SpaceSaving: it has the opposite error
direction (underestimation) and lets us check how sensitive the D-Choices
head detection is to the specific sketch.
"""

from __future__ import annotations

from typing import Iterator

from repro.exceptions import ConfigurationError, SketchError
from repro.sketches.base import FrequencyEstimate, FrequencyEstimator
from repro.types import Key


class MisraGries(FrequencyEstimator):
    """Deterministic counter-based frequent elements sketch.

    Examples
    --------
    >>> sketch = MisraGries(capacity=2)
    >>> sketch.add_all(["a", "b", "a", "c", "a"])
    >>> sketch.estimate("a") >= 1
    True
    >>> "a" in sketch.heavy_hitters(0.5)
    True
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._counters: dict[Key, int] = {}
        self._total = 0
        # Cumulative amount subtracted from every counter; bounds the
        # underestimation of any monitored key.
        self._decrements = 0

    @property
    def total(self) -> int:
        return self._total

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._counters)

    def reset(self) -> None:
        """Forget every counter in place (capacity is kept)."""
        self._counters.clear()
        self._total = 0
        self._decrements = 0

    def add(self, key: Key, count: int = 1) -> None:
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self._total += count
        if key in self._counters:
            self._counters[key] += count
            return
        if len(self._counters) < self._capacity:
            self._counters[key] = count
            return
        # Decrement-all step.  With count > 1 we apply the textbook algorithm
        # ``count`` times in one shot: subtract the largest amount that keeps
        # the new key's counter non-negative.
        decrement = min(count, min(self._counters.values()))
        if decrement > 0:
            self._decrements += decrement
            for existing in list(self._counters):
                self._counters[existing] -= decrement
                if self._counters[existing] <= 0:
                    del self._counters[existing]
        remaining = count - decrement
        if remaining > 0 and len(self._counters) < self._capacity:
            self._counters[key] = remaining

    def add_and_classify_batch(
        self,
        keys,
        threshold: float,
        warmup: int = 0,
        tail_out: list | None = None,
    ) -> list[bool]:
        """Fused bulk update + head classification (see the base contract).

        The monitored-key increment and the free-counter insert are inlined;
        only the decrement-all step goes through :meth:`add`.  After an
        eviction round the new key may be left unmonitored (estimate 0),
        which the re-read of the counter reproduces exactly.
        """
        flags: list[bool] = []
        append = flags.append
        counters = self._counters
        capacity = self._capacity
        total = self._total
        tail_append = tail_out.append if tail_out is not None else None
        for key in keys:
            total += 1
            count = counters.get(key)
            if count is not None:
                count += 1
                counters[key] = count
            elif len(counters) < capacity:
                counters[key] = count = 1
            else:
                self._total = total - 1
                self.add(key)
                count = counters.get(key, 0)
            is_head = total >= warmup and count >= threshold * total
            append(is_head)
            if not is_head and tail_append is not None:
                tail_append(key)
        self._total = total
        return flags

    def estimate(self, key: Key) -> int:
        return self._counters.get(key, 0)

    def error(self, key: Key) -> int:
        """Upper bound on the underestimation of any key's count."""
        return self._decrements

    def entries(self) -> Iterator[FrequencyEstimate]:
        for key, count in self._counters.items():
            yield FrequencyEstimate(key, count, 0)

    def heavy_hitters(self, threshold: float) -> dict[Key, int]:
        """Heavy hitters with a correction for the underestimation bias.

        Misra-Gries can *under*estimate by up to ``self._decrements``; to
        avoid false negatives we compare against the threshold minus that
        slack, mirroring how SpaceSaving avoids them by overestimating.
        """
        if self.total == 0:
            return {}
        cutoff = threshold * self.total - self._decrements
        return {
            key: count for key, count in self._counters.items() if count >= cutoff
        }

    def merge(self, other: "MisraGries") -> "MisraGries":
        """Merge two summaries (Agarwal et al., mergeable summaries)."""
        if not isinstance(other, MisraGries):
            raise SketchError("can only merge MisraGries with MisraGries")
        capacity = max(self._capacity, other._capacity)
        merged = MisraGries(capacity)
        merged._total = self._total + other._total
        combined: dict[Key, int] = dict(self._counters)
        for key, count in other._counters.items():
            combined[key] = combined.get(key, 0) + count
        kept = sorted(combined.items(), key=lambda item: item[1], reverse=True)
        if len(kept) > capacity:
            # subtract the (capacity+1)-th largest counter from the survivors
            pivot = kept[capacity][1]
            merged._decrements = self._decrements + other._decrements + pivot
            merged._counters = {
                key: count - pivot for key, count in kept[:capacity] if count > pivot
            }
        else:
            merged._decrements = self._decrements + other._decrements
            merged._counters = dict(kept)
        return merged
