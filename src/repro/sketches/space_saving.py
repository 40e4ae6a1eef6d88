"""The SpaceSaving heavy-hitter algorithm (Metwally, Agrawal, El Abbadi 2005).

SpaceSaving keeps at most ``capacity`` monitored keys.  On arrival of a key:

* if it is monitored, increment its counter;
* otherwise, if there is room, start monitoring it with count 1;
* otherwise evict the key with the *minimum* counter ``min``, replace it with
  the new key, and set the new counter to ``min + 1`` with error ``min``.

Guarantees (with ``capacity = ceil(1/eps)``):

* every key with true count ``> eps * total`` is monitored (no false
  negatives above the threshold);
* for every monitored key, ``true_count <= estimate <= true_count + error``
  and ``error <= total / capacity``.

The implementation uses the "stream summary" structure from the original
paper: counters are grouped into buckets of equal count (*count classes*),
kept in a doubly linked list ordered by count; each class keeps its keys in
class-entry order.  What that costs per message, the partitioners calling
``add`` once for each:

* a **hit** (unit increment of a monitored key) is O(1): the key moves to
  the adjacent class, or its singleton bucket is bumped in place;
* an **insert** into a sketch with room is O(1): class 1 is the head or goes
  right before it;
* a **miss** on a full sketch evicts the *oldest key of the minimum class*
  in O(1) **amortised over the stream's messages** (not worst case).
  Naming that key by iterating the class's dict is O(1) only on a dict
  nobody deletes from: CPython starts every iteration at entry 0 and steps
  over a tombstone for every entry removed before the first live one, and
  evictions remove exactly those — draining a class of C keys costs C^2 / 2
  steps.  So the class is snapshotted once, when evictions first reach it,
  and victims are taken off the front of the snapshot
  (:meth:`SpaceSaving._take_victim`): O(C) for the copy, O(1) per entry
  after that, and every entry was paid for by the message that put its key
  into the class.  The snapshot stays the class's eviction order because
  **nothing enters the minimum class of a full sketch** — a hit moves a key
  *up*, an eviction inserts at ``min + 1`` — so the class only loses keys:
  to eviction, from the front, or to a hit, which the snapshot skips.  It
  is dropped where that premise ends: at an insert while the sketch has
  room (initial fill, after :meth:`SpaceSaving.grow`) and when a singleton
  minimum bucket is reused in place for the newcomer;
* weighted updates (``add(key, count)``, :meth:`SpaceSaving.from_state`)
  walk the bucket list forward — linear in the number of classes, and off
  the routing path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SketchError
from repro.types import Key

#: Sentinel distinct from every stream key (including ``None``) for run
#: detection in :meth:`SpaceSaving.add_all`.
_NO_KEY = object()


def runs_to_flags(runs: Sequence[int]) -> np.ndarray | None:
    """Expand head-run lengths back into the ``bool`` head mask of a chunk.

    Inverse of the run-length classification contract (see
    :meth:`SpaceSaving.add_and_classify_runs`): ``runs[i]`` heads, then one
    tail, for every entry but the last, which is the trailing head run —
    so the ``i``-th tail sits at ``runs[0] + ... + runs[i] + i``.  ``None``
    when the chunk holds no head message (the id kernel's contract).  The
    expansion is two numpy calls, so deriving flags from runs is cheap
    enough that the sketch only implements the run form of the fused pass.
    """
    heads = sum(runs)
    if not heads:
        return None
    tails = len(runs) - 1
    flags = np.ones(heads + tails, dtype=bool)
    before_tail = np.cumsum(np.fromiter(runs, np.int64, tails + 1)[:-1])
    flags[before_tail + np.arange(tails)] = False
    return flags


@dataclass(frozen=True, slots=True)
class FrequencyEstimate:
    """A monitored key's estimated count and its overestimation bound.

    The true count lies in ``[count - error, count]``.
    """

    key: Key
    count: int
    error: int = 0

    @property
    def guaranteed_count(self) -> int:
        """A lower bound on the true count of this key."""
        return max(0, self.count - self.error)


class _Bucket:
    """A count class: the monitored keys that share one count value.

    Buckets form a doubly linked list ordered by ``count`` ascending.
    ``keys`` maps each key of the class to its overestimation error and
    preserves class-entry order, so eviction picks the key that has been in
    the minimum class longest, matching the reference implementation's
    tie-breaking.  The error travels with the key when it changes class.
    """

    __slots__ = ("count", "keys", "prev", "next")

    def __init__(self, count: int) -> None:
        self.count = count
        self.keys: dict[Key, int] = {}
        self.prev: Optional["_Bucket"] = None
        self.next: Optional["_Bucket"] = None


class SpaceSaving:
    """Stream-summary implementation of SpaceSaving.

    Parameters
    ----------
    capacity:
        Maximum number of monitored keys.  To detect every key with relative
        frequency at least ``phi`` it suffices to set ``capacity >= 1/phi``;
        :meth:`for_threshold` computes that for you.

    Examples
    --------
    >>> sketch = SpaceSaving(capacity=2)
    >>> for key in ["a", "a", "b", "a", "c"]:
    ...     sketch.add(key)
    >>> sketch.estimate("a") >= 3   # never underestimates
    True
    >>> sorted(sketch.heavy_hitters(0.5))
    ['a']
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._total = 0
        self._where: dict[Key, _Bucket] = {}
        self._head: Optional[_Bucket] = None  # bucket with the minimum count
        # Eviction order of the minimum class: an iterator over a snapshot of
        # `_victims_of.keys`, valid while `_victims_of` is the head bucket.
        self._victims: Iterator[Key] = iter(())
        self._victims_of: Optional[_Bucket] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_threshold(cls, threshold: float, slack: float = 1.0) -> "SpaceSaving":
        """Create a sketch able to track keys of relative frequency >= threshold.

        ``slack`` > 1 over-provisions the sketch (more counters than strictly
        necessary), which reduces the estimation error of the reported heavy
        hitters; the paper's setting of theta = 1/(5n) with default slack
        yields a sketch of 5n counters — still O(n) memory per source.

        The capacity is ``ceil(slack / threshold)``: rounding *up* is what
        keeps the no-false-negative guarantee (``capacity >= 1/phi``) intact
        for every threshold.  Rounding to nearest would under-provision —
        e.g. ``for_threshold(0.4)`` would get 2 counters where the guarantee
        needs ``ceil(1 / 0.4) = 3``.
        """
        if threshold <= 0.0 or threshold > 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        if slack <= 0.0:
            raise ConfigurationError(f"slack must be positive, got {slack}")
        capacity = max(1, math.ceil(slack / threshold))
        return cls(capacity)

    # ------------------------------------------------------------------ #
    # streaming interface
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Total number of items observed so far."""
        return self._total

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._where)

    def add(self, key: Key, count: int = 1) -> None:
        if count == 1:  # the streaming hot case: take the fused fast path
            self.add_and_estimate(key)
            return
        if count < 1:
            raise SketchError(f"count must be >= 1, got {count}")
        self._total += count
        if key in self._where:
            self._increment(key, count)
            return
        if len(self._where) < self._capacity:
            self._insert_new(key, count, error=0)
            return
        self._replace_minimum(key, count)

    def add_and_estimate(self, key: Key) -> int:
        """Account for one occurrence of ``key`` and return its new estimate.

        Semantically identical to ``add(key); estimate(key)`` but fused: the
        routing hot path calls both on every message, and the combined form
        saves a monitored-key lookup plus the bucket relink going through
        three helper calls.  The unit-increment case is fully inlined; a
        miss on a full sketch is one call to :meth:`_evict`.
        """
        self._total += 1
        where = self._where
        bucket = where.get(key)
        if bucket is not None:
            new_count = bucket.count + 1
            nxt = bucket.next
            members = bucket.keys
            if len(members) == 1 and (nxt is None or nxt.count > new_count):
                # The key is alone in its count class and moving it up does
                # not collide with the successor class: bump the bucket in
                # place.  This is the steady state of every hot key (unique
                # high count), so the hottest messages cost one dict hit and
                # an integer increment — no allocation, no relinking.
                bucket.count = new_count
                return new_count
            # Inlined unit _increment: move the key one count class up.
            error = members.pop(key)
            if nxt is not None and nxt.count == new_count:
                target = nxt
            else:
                target = _Bucket(new_count)
                target.prev = bucket
                target.next = nxt
                if nxt is not None:
                    nxt.prev = target
                bucket.next = target
            target.keys[key] = error
            where[key] = target
            if not members:
                prev = bucket.prev
                nxt = bucket.next
                if prev is not None:
                    prev.next = nxt
                else:
                    self._head = nxt
                if nxt is not None:
                    nxt.prev = prev
                bucket.prev = bucket.next = None
            return new_count
        if len(where) < self._capacity:
            self._insert_new(key, 1, error=0)
            return 1
        return self._evict(key)

    def add_and_classify_runs(
        self,
        keys,
        threshold: float,
        warmup: int = 0,
        tail_out: list | None = None,
    ) -> list[int]:
        """Fused bulk update + run-length head classification.

        For every key, in order: ``add(key)``, then class it as head when
        the observed total has reached ``warmup`` and the key's fresh
        estimate is at least ``threshold * total``.  Returns the chunk's
        head/tail interleaving as head-run lengths: ``runs[i]`` is the
        number of consecutive head messages immediately before the ``i``-th
        tail message, and the final entry is the trailing head run, so
        ``len(runs) == number_of_tails + 1`` (:func:`runs_to_flags` expands
        them into one flag per key).  ``tail_out`` receives the tail keys in
        stream order.

        THE routing hot loop: every message of every head/tail scheme's
        batch path goes through here exactly once.  The whole update of
        :meth:`add_and_estimate` is inlined, hit and miss alike — the steady
        state (key alone in its count class) is a dict hit and an integer
        bump, a count-class relink and a unit eviction (the three cases of
        :meth:`_evict`, victim pick included) touch no helper either — so
        once the sketch is full no message makes a Python-level call; only
        the insert into a sketch that still has room does.  A head message
        costs one integer bump of the open run instead of a list append,
        which on the skewed streams the head/tail split exists for is most
        messages.  Flags derived from the returned runs are identical to the
        reference ``add`` + ``estimate`` loop's.
        """
        runs: list[int] = []
        rappend = runs.append
        where = self._where
        where_get = where.get
        # No key leaves without another entering: full stays full.
        full = len(where) >= self._capacity
        victims = self._victims
        victims_of = self._victims_of
        total = self._total
        sink = tail_out if tail_out is not None else []
        tail_append = sink.append
        run = 0
        try:
            for key in keys:
                bucket = where_get(key)
                if bucket is not None:
                    new_count = bucket.count + 1
                    nxt = bucket.next
                    members = bucket.keys
                    if len(members) == 1 and (nxt is None or nxt.count > new_count):
                        bucket.count = new_count
                    else:
                        # Inlined unit relink (mirrors add_and_estimate):
                        # move the key one count class up, dropping its old
                        # class if that leaves it empty.
                        error = members.pop(key)
                        if nxt is not None and nxt.count == new_count:
                            target = nxt
                        else:
                            target = _Bucket(new_count)
                            target.prev = bucket
                            target.next = nxt
                            if nxt is not None:
                                nxt.prev = target
                            bucket.next = target
                        target.keys[key] = error
                        where[key] = target
                        if not members:
                            prev = bucket.prev
                            nxt = bucket.next
                            if prev is not None:
                                prev.next = nxt
                            else:
                                self._head = nxt
                            if nxt is not None:
                                nxt.prev = prev
                            bucket.prev = bucket.next = None
                elif not full:
                    self._insert_new(key, 1, error=0)
                    victims_of = None
                    new_count = 1
                    full = len(where) >= self._capacity
                else:
                    # Inlined unit eviction (mirrors _evict): the oldest key
                    # of the minimum class makes room, the newcomer enters
                    # class min + 1 with error min.
                    bucket = self._head
                    members = bucket.keys
                    error = bucket.count
                    new_count = error + 1
                    if victims_of is bucket:
                        for victim in victims:
                            if victim in members:
                                break
                        else:
                            raise SketchError(
                                "victim snapshot exhausted before its count class"
                            )
                        del members[victim]
                    elif len(members) == 1:
                        victim = members.popitem()[0]
                    else:
                        victims = iter(list(members))
                        victims_of = bucket
                        victim = next(victims)
                        del members[victim]
                    del where[victim]
                    nxt = bucket.next
                    if nxt is not None and nxt.count == new_count:
                        target = nxt
                        if not members:
                            # The class emptied into its successor: the
                            # head pointer moves, the bucket is dropped.
                            nxt.prev = bucket.next = None
                            self._head = nxt
                    elif members:
                        target = _Bucket(new_count)
                        target.prev = bucket
                        target.next = nxt
                        if nxt is not None:
                            nxt.prev = target
                        bucket.next = target
                    else:
                        # Singleton class, successor count free: the bucket
                        # is reused in place — and now holds a key its
                        # snapshot (if it has one) never saw.
                        target = bucket
                        bucket.count = new_count
                        victims_of = None
                    target.keys[key] = error
                    where[key] = target
                total += 1
                if total >= warmup and new_count >= threshold * total:
                    run += 1
                else:
                    rappend(run)
                    run = 0
                    tail_append(key)
        finally:
            self._total = total
            self._victims = victims
            self._victims_of = victims_of
        rappend(run)
        return runs

    def add_all(self, keys) -> None:
        """Bulk update: collapse runs of equal keys into one counter move.

        A run of ``r`` consecutive occurrences of the same key is accounted
        with a single ``add(key, r)`` — one total update and one
        stream-summary relink instead of ``r``.  SpaceSaving's update is
        weight-linear (``add(k, r)`` and ``r`` times ``add(k, 1)`` yield the
        same summary when nothing intervenes), so the result is identical to
        element-wise feeding; skewed streams, where the hot key arrives in
        bursts, see most of the benefit.
        """
        pending: Key = _NO_KEY
        run = 0
        for key in keys:
            if key == pending:
                run += 1
            else:
                if run:
                    self.add(pending, run)
                pending = key
                run = 1
        if run:
            self.add(pending, run)

    def reset(self) -> None:
        """Forget every counter in place (capacity is kept)."""
        self._total = 0
        self._where.clear()
        self._head = None
        self._victims = iter(())
        self._victims_of = None

    def grow(self, new_capacity: int) -> None:
        """Raise the capacity in place, preserving every monitored counter.

        Capacity only gates the *insertion* of new keys, so growing is free:
        existing counters, errors and the bucket list stay untouched, and the
        sketch simply stops evicting until the larger budget fills up.  Used
        by the head/tail partitioners when a rescale re-derives a smaller
        theta whose head no longer fits the original sizing.  Shrinking is
        rejected — it would have to pick eviction victims and would weaken
        the error bound of the surviving counters.
        """
        if new_capacity < self._capacity:
            raise SketchError(
                f"cannot shrink capacity {self._capacity} to {new_capacity}"
            )
        self._capacity = new_capacity

    def estimate(self, key: Key) -> int:
        """Estimated count of ``key`` (0 for keys not monitored)."""
        bucket = self._where.get(key)
        return bucket.count if bucket is not None else 0

    def __contains__(self, key: Key) -> bool:
        return key in self._where

    def error(self, key: Key) -> int:
        """Overestimation bound for ``key`` (0 if the key is not monitored)."""
        bucket = self._where.get(key)
        return bucket.keys[key] if bucket is not None else 0

    def guaranteed(self, key: Key) -> int:
        """Guaranteed (lower bound) count for ``key``."""
        bucket = self._where.get(key)
        if bucket is None:
            return 0
        return bucket.count - bucket.keys[key]

    def entries(self) -> Iterator[FrequencyEstimate]:
        """Every monitored key, count classes ascending."""
        bucket = self._head
        while bucket is not None:
            for key, error in bucket.keys.items():
                yield FrequencyEstimate(key, bucket.count, error)
            bucket = bucket.next

    def min_count(self) -> int:
        """Smallest monitored count (0 when the sketch is empty)."""
        return self._head.count if self._head is not None else 0

    def heavy_hitters(self, threshold: float) -> dict[Key, int]:
        """Keys whose estimated relative frequency is at least ``threshold``.

        Maps each such key to its estimated count.  There are no false
        negatives while ``capacity >= 1 / threshold``; false positives are
        possible and harmless for the partitioners (a tail key treated as
        head only gains placement freedom).
        """
        total = self._total
        if total == 0:
            return {}
        cutoff = threshold * total
        return {entry.key: entry.count for entry in self.entries() if entry.count >= cutoff}

    def head_signature(self, threshold: float) -> tuple[int, int]:
        """``(len(heavy_hitters(threshold)), hottest count)`` without the dict.

        The stream summary groups keys into count classes, so the pair falls
        out of one walk over the bucket list — O(number of distinct counts)
        instead of materialising a :class:`FrequencyEstimate` per monitored
        key the way ``heavy_hitters`` does.  D-Choices polls this on every
        throttled solver check, which made the full ``current_head()`` scan
        the single hottest spot of its routing profile.
        """
        total = self._total
        if total == 0:
            return (0, 0)
        cutoff = threshold * total
        cardinality = 0
        hottest = 0
        bucket = self._head
        while bucket is not None:
            if bucket.count >= cutoff:
                # Buckets are ordered by count ascending: once one qualifies
                # they all do, and the last one seen holds the maximum.
                cardinality += len(bucket.keys)
                hottest = bucket.count
            bucket = bucket.next
        return (cardinality, hottest)

    def head_counts(self, threshold: float) -> list[int]:
        """``list(heavy_hitters(threshold).values())`` from one bucket walk:
        each qualifying count class contributes its count once per monitored
        key, no per-key objects or dict involved.  The D-Choices solver only
        needs the sorted count multiset."""
        total = self._total
        if total == 0:
            return []
        cutoff = threshold * total
        counts: list[int] = []
        bucket = self._head
        while bucket is not None:
            count = bucket.count
            if count >= cutoff:
                counts.extend([count] * len(bucket.keys))
            bucket = bucket.next
        return counts

    # ------------------------------------------------------------------ #
    # internal stream-summary maintenance
    # ------------------------------------------------------------------ #
    def _insert_new(self, key: Key, count: int, error: int) -> None:
        """Start monitoring ``key`` in a sketch that still has room.

        The one way a key enters a class other than from the class below or
        through an eviction, so the one that can put a key into a class whose
        eviction order is already snapshotted: the snapshot is dropped.
        """
        bucket = self._find_or_create_bucket(count, hint=self._head)
        bucket.keys[key] = error
        self._where[key] = bucket
        self._victims_of = None

    def _increment(self, key: Key, count: int) -> None:
        bucket = self._where[key]
        error = bucket.keys.pop(key)
        target = self._find_or_create_bucket(bucket.count + count, hint=bucket)
        target.keys[key] = error
        self._where[key] = target
        self._maybe_drop(bucket)

    def _take_victim(self, bucket: _Bucket) -> Key:
        """Remove and return the oldest key of the minimum class ``bucket``.

        Victims come off a snapshot of the class taken when evictions first
        reach it; a key that has since left through a hit is skipped (the
        module docstring has the cost and the soundness argument).  A
        singleton class needs neither snapshot nor iteration.
        """
        members = bucket.keys
        if self._victims_of is bucket:
            for victim in self._victims:
                if victim in members:
                    break
            else:
                # A key entered the class behind the snapshot's back: fail
                # rather than evict in the wrong order.
                raise SketchError("victim snapshot exhausted before its count class")
            del members[victim]
            return victim
        if len(members) == 1:
            return members.popitem()[0]
        self._victims = iter(list(members))
        self._victims_of = bucket
        victim = next(self._victims)
        del members[victim]
        return victim

    def _evict(self, key: Key) -> int:
        """Unit eviction on a full sketch: ``key`` replaces the oldest key of
        the minimum class and enters class ``min + 1`` with error ``min``.
        Returns the new estimate.  :meth:`add_and_classify_runs` carries an
        inlined copy of this body; keep the two in step.
        """
        bucket = self._head
        assert bucket is not None  # capacity >= 1 and the sketch is full
        members = bucket.keys
        error = bucket.count
        new_count = error + 1
        del self._where[self._take_victim(bucket)]
        nxt = bucket.next
        if nxt is not None and nxt.count == new_count:
            target = nxt
            if not members:
                # The class emptied into its successor: the head pointer
                # moves, the bucket is dropped.
                nxt.prev = bucket.next = None
                self._head = nxt
        elif members:
            target = self._insert_after(bucket, new_count)
        else:
            # Singleton class, successor count free: the bucket is reused in
            # place — and now holds a key its snapshot (if it has one) never
            # saw.
            target = bucket
            bucket.count = new_count
            self._victims_of = None
        target.keys[key] = error
        self._where[key] = target
        return new_count

    def _replace_minimum(self, key: Key, count: int) -> None:
        """Weighted eviction (``add(key, count)``, off the hot path)."""
        min_bucket = self._head
        assert min_bucket is not None  # capacity >= 1 and the sketch is full
        error = min_bucket.count
        del self._where[self._take_victim(min_bucket)]
        target = self._find_or_create_bucket(error + count, hint=min_bucket)
        target.keys[key] = error
        self._where[key] = target
        self._maybe_drop(min_bucket)

    def _find_or_create_bucket(self, count: int, hint: Optional[_Bucket]) -> _Bucket:
        """Locate the bucket with ``count``, creating it after ``hint`` if needed.

        ``hint`` is a bucket whose count is <= ``count`` (the bucket the key
        is moving out of, or the head).  For unit increments the target is
        either ``hint`` itself, its successor, or a new bucket right after
        ``hint`` — all O(1).  For larger ``count`` jumps (weighted adds,
        :meth:`from_state`) we walk forward, which is linear in the number
        of buckets but only used off the hot path.
        """
        if self._head is None:
            bucket = _Bucket(count)
            self._head = bucket
            return bucket

        current = hint if hint is not None else self._head
        if current.count > count:
            current = self._head
        # Walk forward until the next bucket would overshoot.
        while current.next is not None and current.next.count <= count:
            current = current.next
        if current.count == count:
            return current
        if current.count < count:
            return self._insert_after(current, count)
        # current.count > count can only happen when current is the head and
        # the head already exceeds count: insert a new bucket before it.
        return self._insert_before(current, count)

    def _insert_after(self, bucket: _Bucket, count: int) -> _Bucket:
        new = _Bucket(count)
        new.prev = bucket
        new.next = bucket.next
        if bucket.next is not None:
            bucket.next.prev = new
        bucket.next = new
        return new

    def _insert_before(self, bucket: _Bucket, count: int) -> _Bucket:
        new = _Bucket(count)
        new.next = bucket
        new.prev = bucket.prev
        if bucket.prev is not None:
            bucket.prev.next = new
        else:
            self._head = new
        bucket.prev = new
        return new

    def _maybe_drop(self, bucket: _Bucket) -> None:
        if bucket.keys:
            return
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        bucket.prev = bucket.next = None

    # ------------------------------------------------------------------ #
    # transplantable state (adaptive scheme switching)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """Snapshot of the summary, sufficient to rebuild it byte-identically.

        Entries are listed in summary order — count classes ascending, keys
        within a class in insertion order — which is exactly the order
        :meth:`from_state` must replay them in: the stream summary's future
        behaviour (bucket relinks, eviction of the *oldest* minimal counter)
        depends on that order, not just on the (key, count, error) multiset.
        """
        return {
            "capacity": self._capacity,
            "total": self._total,
            "entries": [
                (entry.key, entry.count, entry.error) for entry in self.entries()
            ],
        }

    @classmethod
    def from_state(cls, state: dict, capacity: int | None = None) -> "SpaceSaving":
        """Rebuild a sketch from :meth:`export_state` output.

        With the exported capacity the result is byte-identical to the
        original — same buckets, same within-bucket order, same total — so a
        partitioner adopting another's sketch continues exactly where the
        donor left off instead of cold-starting through the warmup again.
        ``capacity`` overrides the sizing (an adopting scheme may need more
        counters for its own theta); a smaller capacity keeps the largest
        counters.
        """
        target = int(capacity if capacity is not None else state["capacity"])
        if target < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {target}")
        sketch = cls(target)
        entries = state["entries"]
        # Entries are stored ascending by count: the suffix holds the largest.
        for key, count, error in entries[-target:] if len(entries) > target else entries:
            sketch._insert_new(key, count, error)
        sketch._total = int(state["total"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceSaving(capacity={self._capacity}, monitored={len(self)}, "
            f"total={self._total})"
        )
