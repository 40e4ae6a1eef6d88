"""Load tracking and imbalance metrics.

Implements the definitions of Section II-B:

* the load of worker ``w`` at time ``t`` is the fraction of messages handled
  by ``w`` up to ``t``;
* the imbalance is ``I(t) = max_w L_w(t) - avg_w L_w(t)``.

:class:`LoadTracker` maintains absolute per-worker counters (plus an optional
head/tail split), and :class:`ImbalanceTimeSeries` records ``I(t)`` at fixed
message intervals so the over-time plots (Figure 12) can be reproduced.
:class:`WorkerKeySets` (the scalar oracle) and :class:`WorkerKeyBits` (a
columnar run) hold the worker-side key state that Section IV-B's memory
cost counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.types import Key, LoadSnapshot, WorkerId, loads_imbalance


class LoadTracker:
    """Global per-worker load counters.

    The tracker is the *observer's* view: it sees every message regardless of
    which source routed it, which is what the imbalance metric is defined
    over.  (Sources themselves only see their own traffic; that local view
    lives inside each partitioner.)
    """

    def __init__(self, num_workers: int, track_head_tail: bool = False) -> None:
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self._num_workers = num_workers
        self._loads = [0] * num_workers
        self._track_head_tail = track_head_tail
        self._head_loads = [0] * num_workers if track_head_tail else None
        self._total = 0
        self._messages_seen = 0

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def total_messages(self) -> int:
        """Messages currently in the load picture (the imbalance denominator).

        Decreases when a rescale retires workers — their handled messages
        leave the picture.  Use :attr:`messages_seen` for stream positions.
        """
        return self._total

    @property
    def messages_seen(self) -> int:
        """Monotonic count of every message ever recorded (stream position).

        Unlike :attr:`total_messages` this never decreases on a rescale, so
        it is the correct time axis for :class:`ImbalanceTimeSeries`.
        """
        return self._messages_seen

    @property
    def loads(self) -> list[int]:
        """Absolute number of messages routed to each worker."""
        return list(self._loads)

    def record(self, worker: WorkerId, is_head: bool = False) -> None:
        """Account for one message routed to ``worker``."""
        if not 0 <= worker < self._num_workers:
            raise SimulationError(
                f"worker {worker} outside [0, {self._num_workers})"
            )
        self._loads[worker] += 1
        self._total += 1
        self._messages_seen += 1
        if self._head_loads is not None and is_head:
            self._head_loads[worker] += 1

    def record_span(
        self, workers: np.ndarray, head_mask: np.ndarray | None = None
    ) -> None:
        """Account for one message per entry of the integer array ``workers``.

        Equivalent to one :meth:`record` per message: ``head_mask`` (boolean,
        as long as ``workers``) marks the head messages, ``None`` means the
        span holds none.  The range check covers the whole span before any
        counter moves, so a rejected span leaves the tracker untouched.
        """
        num_workers = self._num_workers
        outside = workers[(workers < 0) | (workers >= num_workers)]
        if len(outside):
            raise SimulationError(
                f"worker {int(outside[0])} outside [0, {num_workers})"
            )
        counts = np.bincount(workers, minlength=num_workers).tolist()
        self._loads = [load + count for load, count in zip(self._loads, counts)]
        self._total += len(workers)
        self._messages_seen += len(workers)
        if self._head_loads is not None and head_mask is not None:
            counts = np.bincount(workers[head_mask], minlength=num_workers).tolist()
            self._head_loads = [
                load + count for load, count in zip(self._head_loads, counts)
            ]

    def rescale(self, new_num_workers: int) -> None:
        """Resize the tracked worker set (workers are ``0 .. n-1``).

        Growing appends zero counters; shrinking drops the counters of the
        removed (highest-id) workers — the messages a departed worker
        handled leave the load picture, so the imbalance is always measured
        over the *currently active* workers, which is what an elasticity
        trajectory should show.
        """
        if new_num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {new_num_workers}"
            )
        old_num_workers = self._num_workers
        if new_num_workers == old_num_workers:
            return
        self._num_workers = new_num_workers
        if new_num_workers > old_num_workers:
            extra = new_num_workers - old_num_workers
            self._loads.extend([0] * extra)
            if self._head_loads is not None:
                self._head_loads.extend([0] * extra)
        else:
            self._total -= sum(self._loads[new_num_workers:])
            del self._loads[new_num_workers:]
            if self._head_loads is not None:
                del self._head_loads[new_num_workers:]

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    def imbalance(self) -> float:
        """``I(t) = max_w L_w - avg_w L_w`` over normalised loads
        (:func:`~repro.types.loads_imbalance`, correctly rounded)."""
        return loads_imbalance(self._loads)

    def max_load(self) -> float:
        """Normalised load of the most loaded worker."""
        if self._total == 0:
            return 0.0
        return max(self._loads) / self._total

    def snapshot(self, time: float) -> LoadSnapshot:
        return LoadSnapshot(time=time, loads=list(self._loads))

    def head_tail_split(self) -> tuple[list[int], list[int]]:
        """Per-worker (head, tail) absolute loads (requires tracking enabled)."""
        if self._head_loads is None:
            raise SimulationError(
                "head/tail tracking was not enabled for this run"
            )
        tail = [
            total - head for total, head in zip(self._loads, self._head_loads)
        ]
        return list(self._head_loads), tail


class WorkerKeySets:
    """Worker-side key state of the scalar oracle: one set of keys per worker.

    Section IV-B's memory cost is one state entry per (worker, key) pair a
    message created.  The engine adds each routed message to
    ``worker_keys[worker]`` (and head keys to ``head_keys``) itself; the
    reads below are shared with :class:`WorkerKeyBits`, which keeps the same
    state for a columnar run.
    """

    __slots__ = ("worker_keys", "head_keys")

    def __init__(self, num_workers: int) -> None:
        self.worker_keys: list[set[Key]] = [set() for _ in range(num_workers)]
        self.head_keys: set[Key] = set()

    def observed(self) -> set[Key]:
        """Every key some current worker holds state for."""
        return set().union(*self.worker_keys)

    def resize(self, num_workers: int) -> int:
        """Drop the highest workers or append empty ones; returns the number
        of entries the dropped workers held."""
        worker_keys = self.worker_keys
        dropped = sum(map(len, worker_keys[num_workers:]))
        del worker_keys[num_workers:]
        worker_keys.extend(set() for _ in range(num_workers - len(worker_keys)))
        return dropped

    def entries_of(self, keys: frozenset) -> int:
        """Entries that the current workers hold for ``keys``."""
        return sum(
            1 for keys_on_worker in self.worker_keys for key in keys_on_worker
            if key in keys
        )

    @property
    def memory_entries(self) -> int:
        return sum(map(len, self.worker_keys))

    @property
    def distinct_key_count(self) -> int:
        return len(self.observed())

    @property
    def head_key_count(self) -> int:
        return len(self.head_keys)


#: ``_BIT[b]`` is the word with only bit ``b`` set.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class WorkerKeyBits:
    """Worker-side key state of a columnar run: one bit per (key id, worker).

    Row ``kid`` holds ``ceil(n / 64)`` ``uint64`` words, and worker ``w``'s
    bit is bit ``w % 64`` of word ``w // 64``; a ``bool`` column marks the
    ids some message was routed as head.  The same reads as
    :class:`WorkerKeySets` are popcounts: an id is a key (the dictionary is
    a bijection), so every count equals the oracle's.  Rows are allocated
    by doubling as the dictionary grows and stay zero until recorded.
    """

    __slots__ = ("_bits", "_heads")

    def __init__(self, num_workers: int) -> None:
        self._bits = np.zeros((0, -(-num_workers // 64)), dtype=np.uint64)
        self._heads = np.zeros(0, dtype=bool)

    def record_span(
        self, ids: np.ndarray, workers: np.ndarray, heads: np.ndarray | None
    ) -> None:
        """Set the bit of every ``(ids[i], workers[i])`` and mark the ids of
        the head messages; ``heads`` is ``None`` when the span holds none."""
        rows = int(ids.max()) + 1
        if rows > len(self._bits):
            capacity = max(rows, 2 * len(self._bits))
            self._bits = _resized(self._bits, capacity, self._bits.shape[1])
            self._heads = np.concatenate(
                [self._heads, np.zeros(capacity - len(self._heads), dtype=bool)]
            )
        words = self._bits.shape[1]
        index = ids if words == 1 else ids * words + (workers >> 6)
        np.bitwise_or.at(self._bits.reshape(-1), index, _BIT[workers & 63])
        if heads is not None:
            self._heads[ids[heads]] = True

    def observed(self) -> list[int]:
        """Every id some current worker holds state for, ascending."""
        return np.flatnonzero(self._bits.any(axis=1)).tolist()

    def resize(self, num_workers: int) -> int:
        """Clear the bits of workers ``>= num_workers`` and fit the rows to
        ``ceil(num_workers / 64)`` words; returns the number of bits
        cleared."""
        held = self.memory_entries
        full, rest = divmod(num_workers, 64)
        words = full + (rest > 0)
        bits = _resized(self._bits, len(self._bits), words)
        if rest:
            bits[:, full] &= np.uint64((1 << rest) - 1)
        self._bits = bits
        return held - self.memory_entries

    def entries_of(self, keys: frozenset) -> int:
        """Bits that the current workers hold for the ids in ``keys``."""
        ids = np.fromiter(keys, dtype=np.int64, count=len(keys))
        return int(np.bitwise_count(self._bits[ids]).sum())

    @property
    def memory_entries(self) -> int:
        return int(np.bitwise_count(self._bits).sum())

    @property
    def distinct_key_count(self) -> int:
        return int(np.count_nonzero(self._bits.any(axis=1)))

    @property
    def head_key_count(self) -> int:
        return int(np.count_nonzero(self._heads))


def _resized(bits: np.ndarray, rows: int, words: int) -> np.ndarray:
    """A zeroed ``(rows, words)`` copy of ``bits``' leading rows and words."""
    out = np.zeros((rows, words), dtype=np.uint64)
    kept_rows = min(rows, len(bits))
    kept_words = min(words, bits.shape[1])
    out[:kept_rows, :kept_words] = bits[:kept_rows, :kept_words]
    return out


@dataclass(slots=True)
class WindowedImbalanceSeries:
    """Per-window imbalance: ``I`` computed over each window's load *delta*.

    The cumulative imbalance ``I(t)`` dilutes a transient hot spell — a few
    thousand skewed messages vanish inside millions of balanced ones.  This
    series instead snapshots the absolute loads every ``interval`` messages
    and computes the imbalance of the messages routed *within* the window,
    so a scheme that lags behind a drift shows up in :attr:`worst` even when
    its end-of-stream imbalance looks fine.  A topology change (rescale)
    invalidates the open window's baseline; that window is dropped and the
    series re-baselines from the post-rescale loads — deterministic, and
    identical across the scalar/batched/columnar paths because windows close
    at exact message counts.
    """

    interval: int
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    _baseline: list[int] = field(default_factory=list)

    def maybe_record(self, tracker: LoadTracker) -> None:
        """Close the window if the tracker just crossed a boundary."""
        if self.interval <= 0:
            return
        seen = tracker.messages_seen
        if seen == 0 or seen % self.interval:
            return
        loads = tracker.loads
        baseline = self._baseline
        if len(baseline) != len(loads):
            # A rescale changed the worker set mid-window: the delta is not
            # well defined, so drop this window and restart from here.
            self._baseline = loads
            return
        delta = [now - then for now, then in zip(loads, baseline)]
        if sum(delta) > 0:
            self.times.append(seen)
            self.values.append(loads_imbalance(delta))
        self._baseline = loads

    @property
    def worst(self) -> float:
        """The worst single-window imbalance seen (0.0 with no closed window)."""
        return max(self.values) if self.values else 0.0

    def as_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.times, self.values))


@dataclass(slots=True)
class ImbalanceTimeSeries:
    """Imbalance ``I(t)`` sampled every ``interval`` messages."""

    interval: int
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def maybe_record(self, tracker: LoadTracker) -> None:
        """Record a sample if the tracker just crossed an interval boundary.

        The time axis is :attr:`LoadTracker.messages_seen` — the monotonic
        stream position — so samples stay correctly placed even when a
        rescale shrinks the load total.
        """
        if self.interval <= 0:
            return
        if tracker.messages_seen % self.interval == 0 and tracker.messages_seen > 0:
            self.times.append(tracker.messages_seen)
            self.values.append(tracker.imbalance())

    def final(self, tracker: LoadTracker) -> None:
        """Append the final imbalance if not already sampled."""
        if not self.times or self.times[-1] != tracker.messages_seen:
            self.times.append(tracker.messages_seen)
            self.values.append(tracker.imbalance())

    @property
    def average(self) -> float:
        """Average imbalance across all samples (used by Figure 10/11)."""
        if not self.values:
            return 0.0
        return math.fsum(self.values) / len(self.values)

    @property
    def maximum(self) -> float:
        if not self.values:
            return 0.0
        return max(self.values)

    def as_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.times, self.values))
