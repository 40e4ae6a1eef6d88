"""Concept-drift machinery: Zipf streams whose head changes over time.

The Cashtag dataset (CT) of the paper is characterised by strong concept
drift: which ticker symbols are hot changes from hour to hour, which is what
stresses the heavy-hitter tracking of D-Choices / W-Choices (Figure 12,
bottom row).

:class:`DriftingZipfWorkload` reproduces that behaviour synthetically: the
stream is divided into epochs; within an epoch keys follow a Zipf
distribution, but the *mapping from rank to key identity* is re-drawn at
every epoch boundary, so yesterday's hottest key may be cold today.  A
``drift_fraction`` below 1.0 rotates only part of the mapping, modelling
milder drift (the WP and TW traces drift slowly).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.exceptions import WorkloadError
from repro.types import DatasetStats, Key
from repro.workloads.base import Workload, derive_seed

_CHUNK = 200_000


class DriftingZipfWorkload(Workload):
    """Zipf keys with an epoch-wise re-shuffled rank-to-key mapping.

    Parameters
    ----------
    exponent:
        Zipf exponent within each epoch.
    num_keys:
        Key-space size.
    num_messages:
        Total stream length.
    num_epochs:
        Number of epochs (e.g. simulated hours).  Must divide the stream
        reasonably; the last epoch absorbs any remainder.
    drift_fraction:
        Fraction of the rank-to-key mapping re-drawn at each epoch boundary.
        1.0 re-shuffles everything (strong drift, CT-like); 0.0 disables
        drift entirely (the stream degenerates to a plain Zipf workload).
    seed:
        RNG seed (int or string, normalised through
        :func:`~repro.workloads.base.derive_seed`; ints pass through
        unchanged).
    """

    symbol = "ZF-DRIFT"

    def __init__(
        self,
        exponent: float,
        num_keys: int,
        num_messages: int,
        num_epochs: int = 24,
        drift_fraction: float = 1.0,
        seed: int | str = 0,
    ) -> None:
        if num_messages < 0:
            raise WorkloadError(f"num_messages must be >= 0, got {num_messages}")
        if num_epochs < 1:
            raise WorkloadError(f"num_epochs must be >= 1, got {num_epochs}")
        if not 0.0 <= drift_fraction <= 1.0:
            raise WorkloadError(
                f"drift_fraction must be in [0, 1], got {drift_fraction}"
            )
        self._distribution = ZipfDistribution.shared(exponent, num_keys)
        self._num_messages = num_messages
        self._num_epochs = num_epochs
        self._drift_fraction = drift_fraction
        self._seed = derive_seed(seed)

    @property
    def distribution(self) -> ZipfDistribution:
        return self._distribution

    @property
    def num_epochs(self) -> int:
        return self._num_epochs

    @property
    def num_messages(self) -> int:
        return self._num_messages

    @property
    def drift_fraction(self) -> float:
        return self._drift_fraction

    def _epoch_lengths(self) -> list[int]:
        base = self._num_messages // self._num_epochs
        lengths = [base] * self._num_epochs
        lengths[-1] += self._num_messages - base * self._num_epochs
        return lengths

    def _draw_spans(self) -> Iterator[np.ndarray]:
        """Yield the stream as mapped key arrays, one per RNG draw.

        Single source of truth for the RNG consumption order (rotate the
        mapping at each epoch boundary, then draw ``_CHUNK``-sized rank
        chunks): :meth:`keys`, :meth:`iter_batches` and
        :meth:`iter_batches_columnar` all consume these spans, so the three
        representations carry the same stream for any chunking.
        """
        rng = np.random.default_rng(self._seed)
        num_keys = self._distribution.num_keys
        draw = self._distribution.draw
        # rank -> key identity mapping, re-shuffled (partially) per epoch
        mapping = np.arange(1, num_keys + 1)
        for epoch, length in enumerate(self._epoch_lengths()):
            if epoch > 0 and self._drift_fraction > 0.0:
                mapping = self._rotate_mapping(mapping, rng)
            remaining = length
            while remaining > 0:
                size = min(_CHUNK, remaining)
                yield mapping[draw(size, rng)]
                remaining -= size

    def keys(self) -> Iterator[Key]:
        for span in self._draw_spans():
            yield from span.tolist()

    def iter_batches(self, batch_size: int = 8192) -> Iterator[list[Key]]:
        for span in self._draw_spans():
            values = span.tolist()
            for start in range(0, len(values), batch_size):
                yield values[start : start + batch_size]

    def iter_batches_columnar(self, batch_size=8192, dictionary=None):
        """Native columnar stream; ids are issued per draw span, so the id
        numbering is independent of ``batch_size``."""
        from repro.workloads.columnar import ColumnarBatch, KeyDictionary

        dictionary = dictionary if dictionary is not None else KeyDictionary()
        index = 0
        for span in self._draw_spans():
            ids = dictionary.intern_int_array(span)
            for start in range(0, span.size, batch_size):
                yield ColumnarBatch(
                    ids[start : start + batch_size], dictionary, index + start
                )
            index += span.size

    def _rotate_mapping(
        self, mapping: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Re-draw ``drift_fraction`` of the rank-to-key assignments."""
        num_keys = mapping.size
        num_drift = int(round(self._drift_fraction * num_keys))
        if num_drift < 2:
            return mapping
        new_mapping = mapping.copy()
        positions = rng.choice(num_keys, size=num_drift, replace=False)
        shuffled = positions.copy()
        rng.shuffle(shuffled)
        new_mapping[positions] = mapping[shuffled]
        return new_mapping

    def epoch_of_message(self, index: int) -> int:
        """The epoch the ``index``-th message belongs to (for time series)."""
        if not 0 <= index < max(1, self._num_messages):
            raise WorkloadError(
                f"message index {index} outside [0, {self._num_messages})"
            )
        lengths = self._epoch_lengths()
        seen = 0
        for epoch, length in enumerate(lengths):
            seen += length
            if index < seen:
                return epoch
        return self._num_epochs - 1

    def stats(self) -> DatasetStats:
        return DatasetStats(
            name=(
                f"DriftingZipf(z={self._distribution.exponent:g}, "
                f"|K|={self._distribution.num_keys}, epochs={self._num_epochs})"
            ),
            symbol=self.symbol,
            messages=self._num_messages,
            keys=self._distribution.num_keys,
            p1=self._distribution.p1,
            description=(
                "Zipf stream whose rank-to-key mapping is re-shuffled every "
                "epoch, modelling concept drift."
            ),
        )
