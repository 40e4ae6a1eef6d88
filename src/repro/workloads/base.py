"""Workload interface.

A workload is an iterable of keys (optionally full :class:`Message` tuples)
with known summary statistics.  Workloads are *generators*: iterating twice
yields the same stream only if the workload was constructed with a fixed
seed, which all built-in workloads are.
"""

from __future__ import annotations

import abc
import hashlib
from collections import Counter
from typing import Iterable, Iterator

from repro.types import DatasetStats, Key, Message

#: Seeds are 63-bit so they stay positive through every consumer
#: (``numpy.random.default_rng``, ``random.Random``, JSON round-trips).
_SEED_MASK = (1 << 63) - 1

#: Unit separator: joins multi-part seed material without ambiguity
#: (``("ab", "c")`` and ``("a", "bc")`` must derive different seeds).
_SEED_SEPARATOR = "\x1f"


def derive_seed(*parts: int | str) -> int:
    """Derive a stable 63-bit seed from strings and/or integers.

    The contract (shared by every workload and the scenario catalog):

    * a single ``int`` part normalises to ``abs(value) & (2**63 - 1)`` —
      the identity for the small non-negative seeds used everywhere, so
      adopting this helper never changes an existing stream or experiment
      fingerprint;
    * anything else is joined with a unit separator and SHA-256 hashed;
      the first 8 bytes (big-endian, masked to 63 bits) are the seed.
      The result is platform-independent and stable across releases —
      regression-pinned in ``tests/workloads/test_seed_derivation.py``.

    Multi-part derivation gives every component of a composite generator
    its own decorrelated stream: ``derive_seed(scenario, component, seed)``
    changes completely when any part changes.

    Examples
    --------
    >>> derive_seed(7)
    7
    >>> derive_seed("flash_crowd", "truth", 42) == derive_seed("flash_crowd", "truth", 42)
    True
    """
    if not parts:
        raise ValueError("derive_seed requires at least one part")
    if len(parts) == 1 and isinstance(parts[0], int):
        return abs(parts[0]) & _SEED_MASK
    material = _SEED_SEPARATOR.join(str(part) for part in parts)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _SEED_MASK


class Workload(abc.ABC):
    """Abstract stream of keyed messages.

    Subclasses implement :meth:`keys`, yielding keys in stream order, and
    :meth:`stats`, describing the workload as a Table I row.
    """

    #: Symbol used in the paper's tables (WP, TW, CT, ZF).
    symbol: str = "?"

    @abc.abstractmethod
    def keys(self) -> Iterator[Key]:
        """Yield the key of every message, in stream order."""

    @abc.abstractmethod
    def stats(self) -> DatasetStats:
        """Summary statistics (may be exact or nominal, see subclasses)."""

    def messages(self) -> Iterator[Message]:
        """Yield full messages with consecutive integer timestamps."""
        for timestamp, key in enumerate(self.keys()):
            yield Message(timestamp=float(timestamp), key=key)

    def iter_batches(self, batch_size: int = 8192) -> Iterator[list[Key]]:
        """Yield the stream as chunked lists, in order.

        Feeds the batched routing fast path (``Partitioner.route_batch`` /
        the simulation engine) without per-key generator overhead.  The
        concatenation of all chunks equals :meth:`keys` exactly; only the
        chunk boundaries are an implementation detail.  Subclasses backed by
        array generation override this to skip the per-key yield entirely.
        """
        batch: list[Key] = []
        append = batch.append
        for key in self.keys():
            append(key)
            if len(batch) >= batch_size:
                yield batch
                batch = []
                append = batch.append
        if batch:
            yield batch

    def iter_batches_columnar(
        self, batch_size: int = 8192, dictionary: "KeyDictionary | None" = None
    ) -> "Iterator[ColumnarBatch]":
        """Yield the stream as :class:`~repro.workloads.columnar.ColumnarBatch`.

        Every distinct key is interned exactly once into ``dictionary`` (a
        fresh one per call when omitted); decoding the concatenated batches
        reproduces :meth:`keys` exactly, and id numbering is independent of
        ``batch_size``.  The default wraps :meth:`iter_batches`; array-backed
        workloads override it to intern whole draw chunks vectorized.
        """
        from repro.workloads.columnar import ColumnarBatch, KeyDictionary

        dictionary = dictionary if dictionary is not None else KeyDictionary()
        index = 0
        for chunk in self.iter_batches(batch_size):
            yield ColumnarBatch(dictionary.intern_keys(chunk), dictionary, index)
            index += len(chunk)

    def __iter__(self) -> Iterator[Key]:
        return self.keys()

    def measured_stats(self, name: str | None = None) -> DatasetStats:
        """Compute exact statistics by consuming the whole stream.

        More expensive than :meth:`stats` (which may return nominal values),
        but used by Table I to report what the generated streams actually
        contain.
        """
        counts: Counter[Key] = Counter()
        total = 0
        for key in self.keys():
            counts[key] += 1
            total += 1
        most_common = counts.most_common(1)
        p1 = most_common[0][1] / total if total else 0.0
        nominal = self.stats()
        return DatasetStats(
            name=name or nominal.name,
            symbol=nominal.symbol,
            messages=total,
            keys=len(counts),
            p1=p1,
            description=nominal.description,
        )


def materialize(workload: Workload | Iterable[Key], limit: int | None = None) -> list[Key]:
    """Collect (up to ``limit``) keys of a workload into a list.

    Convenience for tests and small experiments; large sweeps should iterate
    lazily instead.
    """
    result: list[Key] = []
    for index, key in enumerate(workload):
        if limit is not None and index >= limit:
            break
        result.append(key)
    return result
