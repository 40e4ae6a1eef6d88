"""Common interface for frequency estimators (heavy-hitter sketches).

The partitioners only need three operations from a sketch:

* ``add(key)`` — account for one occurrence of ``key``;
* ``estimate(key)`` — an (over- or under-) estimate of the key's count;
* ``heavy_hitters(threshold)`` — the keys whose *relative* frequency is
  estimated to be at least ``threshold``.

Keeping the interface abstract lets D-Choices/W-Choices run with SpaceSaving
(the paper's choice) or with any of the alternatives for ablation studies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.types import Key


def runs_to_flags(runs: Sequence[int]) -> list[bool]:
    """Expand head-run lengths back into one boolean flag per message.

    Inverse of the run-length classification contract (see
    :meth:`FrequencyEstimator.add_and_classify_runs`): ``runs[i]`` heads,
    then one tail, for every entry but the last, which is the trailing head
    run.  The expansion runs on C-speed ``extend`` calls, so deriving flags
    from runs is cheap enough that sketches only implement the run form of
    the fused pass.
    """
    flags: list[bool] = []
    extend = flags.extend
    append = flags.append
    for run in runs[:-1]:
        if run:
            extend([True] * run)
        append(False)
    trailing = runs[-1]
    if trailing:
        extend([True] * trailing)
    return flags


@dataclass(frozen=True, slots=True)
class FrequencyEstimate:
    """An estimated count for a key, with the estimation error if known.

    ``count`` is the sketch's estimate; ``error`` is an upper bound on the
    overestimation, so the true count lies in ``[count - error, count]`` for
    counter-based sketches such as SpaceSaving.
    """

    key: Key
    count: int
    error: int = 0

    @property
    def guaranteed_count(self) -> int:
        """A lower bound on the true count of this key."""
        return max(0, self.count - self.error)


class FrequencyEstimator(abc.ABC):
    """Abstract streaming frequency estimator.

    Implementations must track the total number of observed items in
    :attr:`total` so relative frequencies can be computed without outside
    bookkeeping.
    """

    @property
    @abc.abstractmethod
    def total(self) -> int:
        """Total number of items observed so far."""

    @abc.abstractmethod
    def add(self, key: Key, count: int = 1) -> None:
        """Account for ``count`` occurrences of ``key``."""

    @abc.abstractmethod
    def estimate(self, key: Key) -> int:
        """Estimated count of ``key`` (0 for never-seen keys)."""

    @abc.abstractmethod
    def entries(self) -> Iterator[FrequencyEstimate]:
        """Iterate over all currently monitored keys."""

    def add_all(self, keys: Iterable[Key]) -> None:
        """Convenience: add each key of an iterable once.

        Implementations with a cheaper bulk path (SpaceSaving's run
        collapsing) override this; the result must equal element-wise
        :meth:`add` calls.  Concrete sketches also expose ``reset()`` to
        clear their counters in place — it is part of the informal protocol
        (used by the head/tail partitioners) rather than this ABC so that
        minimal third-party estimators remain valid.
        """
        for key in keys:
            self.add(key)

    def add_and_classify_batch(
        self,
        keys: Sequence[Key],
        threshold: float,
        warmup: int = 0,
        tail_out: list[Key] | None = None,
    ) -> list[bool]:
        """Account for a chunk of keys and classify each as head or tail.

        For every key, in order: ``add(key)``, then flag it as head when the
        observed total has reached ``warmup`` and the key's fresh estimate is
        at least ``threshold * total``.  This is the bulk form of the
        per-message ``add`` + ``estimate`` round trip the head/tail
        partitioners run on every message; implementations override it to
        fuse the two into one pass (SpaceSaving does), but the flags must be
        identical to this reference loop.

        ``tail_out``, when given, receives every tail-classified key in
        stream order — the pass is already branching on the flag, so
        collecting the tail run here is cheaper than the caller re-walking
        the chunk to filter it.
        """
        flags: list[bool] = []
        append = flags.append
        add = self.add
        estimate = self.estimate
        tail_append = tail_out.append if tail_out is not None else None
        for key in keys:
            add(key)
            total = self.total
            is_head = total >= warmup and estimate(key) >= threshold * total
            append(is_head)
            if not is_head and tail_append is not None:
                tail_append(key)
        return flags

    def add_and_classify_runs(
        self,
        keys: Sequence[Key],
        threshold: float,
        warmup: int = 0,
        tail_out: list[Key] | None = None,
    ) -> list[int]:
        """Run-length form of :meth:`add_and_classify_batch`.

        Returns the chunk's head/tail interleaving as head-run lengths:
        ``runs[i]`` is the number of consecutive head messages immediately
        before the ``i``-th tail message, and the final entry is the
        trailing head run, so ``len(runs) == number_of_tails + 1`` and
        ``sum(runs) + number_of_tails == len(keys)``.  ``tail_out`` (usually
        wanted — the tail keys are what the run consumer still needs)
        receives the tail keys in stream order.

        This is the natural shape for batched head/tail routing: the
        selection pass can count a head run down without touching a
        per-message flag, and on skewed streams — where head messages
        dominate by definition of the head — most messages never
        materialise an entry in any list at all.  The default derives the
        runs from :meth:`add_and_classify_batch`, so overriding sketches
        only need the fused flag pass for both contracts to agree.
        """
        sink = tail_out if tail_out is not None else []
        flags = self.add_and_classify_batch(keys, threshold, warmup, sink)
        runs = [0]
        for is_head in flags:
            if is_head:
                runs[-1] += 1
            else:
                runs.append(0)
        return runs

    def head_signature(self, threshold: float) -> tuple[int, int]:
        """Cheap summary of the current head: ``(cardinality, hottest count)``.

        Semantically pinned to :meth:`heavy_hitters`: the first component is
        ``len(heavy_hitters(threshold))`` and the second is the largest
        estimated count among those keys (``0`` when the head is empty).
        D-Choices polls this on its solver throttle, so implementations
        should override it when they can derive the pair without
        materialising the full head mapping; overrides must agree with their
        own ``heavy_hitters`` — including any error-correction the sketch
        applies to the cutoff (MisraGries, LossyCounting).
        """
        head = self.heavy_hitters(threshold)
        if not head:
            return (0, 0)
        return (len(head), max(head.values()))

    def head_counts(self, threshold: float) -> list[int]:
        """The estimated counts of the current head, keys dropped.

        Semantically ``list(heavy_hitters(threshold).values())`` in any
        order — the D-Choices solver input is the sorted count multiset, so
        producing the keys (and a dict around them) is wasted work on its
        path.  Sketches whose summary groups keys by count (SpaceSaving)
        override this with an enumeration-free walk; overrides must agree
        with their own ``heavy_hitters``.
        """
        return list(self.heavy_hitters(threshold).values())

    def frequency(self, key: Key) -> float:
        """Estimated relative frequency of ``key`` in [0, 1]."""
        if self.total == 0:
            return 0.0
        return self.estimate(key) / self.total

    def heavy_hitters(self, threshold: float) -> dict[Key, int]:
        """Keys whose estimated relative frequency is at least ``threshold``.

        Returns a mapping from key to estimated count.  Sketches with
        one-sided error (SpaceSaving, MisraGries with correction, Lossy
        Counting) guarantee no false negatives for the given threshold;
        false positives are possible and harmless for the partitioners
        (a tail key treated as head only gains placement freedom).
        """
        if self.total == 0:
            return {}
        cutoff = threshold * self.total
        return {
            entry.key: entry.count
            for entry in self.entries()
            if entry.count >= cutoff
        }

    def __contains__(self, key: Key) -> bool:
        return self.estimate(key) > 0
