"""Synthetic Zipf workloads (the ZF datasets of Table I).

Keys are integers ``1 .. |K|`` drawn i.i.d. from a finite Zipf distribution
with exponent ``z``.  The paper sweeps ``z`` in {0.1, ..., 2.0}, ``|K|`` in
{10^4, 10^5, 10^6} and uses ``m = 10^7`` messages for the simulations and
``m = 2 * 10^6`` for the cluster runs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.exceptions import WorkloadError
from repro.types import DatasetStats, Key
from repro.workloads.base import Workload, derive_seed

#: Generating huge streams in one numpy call would hold the whole array in
#: memory; draw in chunks instead.
_CHUNK = 200_000


class ZipfWorkload(Workload):
    """I.i.d. Zipf-distributed keys.

    Parameters
    ----------
    exponent:
        Skew ``z``.
    num_keys:
        Key-space size ``|K|``.
    num_messages:
        Stream length ``m``.
    seed:
        RNG seed; the stream is fully reproducible for a given seed.
        Strings are accepted and normalised through
        :func:`~repro.workloads.base.derive_seed` (ints pass through
        unchanged, so explicit integer seeds keep their streams).

    Examples
    --------
    >>> workload = ZipfWorkload(exponent=1.0, num_keys=100, num_messages=10, seed=0)
    >>> len(list(workload.keys()))
    10
    """

    symbol = "ZF"

    def __init__(
        self,
        exponent: float,
        num_keys: int,
        num_messages: int,
        seed: int | str = 0,
    ) -> None:
        if num_messages < 0:
            raise WorkloadError(f"num_messages must be >= 0, got {num_messages}")
        self._distribution = ZipfDistribution.shared(exponent, num_keys)
        self._num_messages = num_messages
        self._seed = derive_seed(seed)

    @property
    def distribution(self) -> ZipfDistribution:
        """The exact key distribution the stream is drawn from."""
        return self._distribution

    @property
    def exponent(self) -> float:
        return self._distribution.exponent

    @property
    def num_keys(self) -> int:
        return self._distribution.num_keys

    @property
    def num_messages(self) -> int:
        return self._num_messages

    @property
    def seed(self) -> int:
        return self._seed

    def keys(self) -> Iterator[Key]:
        for batch in self.iter_batches(_CHUNK):
            yield from batch

    def iter_batches(self, batch_size: int = 8192) -> Iterator[list[Key]]:
        """Chunked stream: numpy draws converted to Python ints in bulk.

        Same draws in the same order as :meth:`keys` for any ``batch_size``
        (the RNG consumption is fixed at ``_CHUNK``-sized draws); ``tolist``
        replaces the per-key ``int(rank)`` conversions.
        """
        rng = np.random.default_rng(self._seed)
        remaining = self._num_messages
        sample_ranks = self._distribution.sample_ranks
        while remaining > 0:
            size = min(_CHUNK, remaining)
            ranks = sample_ranks(size, rng).tolist()
            for start in range(0, size, batch_size):
                yield ranks[start : start + batch_size]
            remaining -= size

    def iter_batches_columnar(self, batch_size=8192, dictionary=None):
        """Native columnar stream: draw chunks are interned as int arrays.

        Same draws and id numbering for any ``batch_size`` (interning
        happens per ``_CHUNK``-sized draw, before slicing).
        """
        from repro.workloads.columnar import ColumnarBatch, KeyDictionary

        dictionary = dictionary if dictionary is not None else KeyDictionary()
        rng = np.random.default_rng(self._seed)
        remaining = self._num_messages
        sample_ranks = self._distribution.sample_ranks
        index = 0
        while remaining > 0:
            size = min(_CHUNK, remaining)
            ranks = sample_ranks(size, rng)
            ids = dictionary.intern_int_array(ranks)
            for start in range(0, size, batch_size):
                yield ColumnarBatch(
                    ids[start : start + batch_size], dictionary, index + start
                )
            index += size
            remaining -= size

    def stats(self) -> DatasetStats:
        return DatasetStats(
            name=f"Zipf(z={self.exponent:g}, |K|={self.num_keys})",
            symbol=self.symbol,
            messages=self._num_messages,
            keys=self.num_keys,
            p1=self._distribution.p1,
            description=(
                "Synthetic i.i.d. Zipf stream; p1 is exact (from the "
                "distribution), the realised value fluctuates with the seed."
            ),
        )
