"""Finite-support Zipf distributions.

The paper's synthetic workloads (ZF in Table I) draw keys from a Zipf
distribution with exponent ``z`` in {0.1, ..., 2.0} over ``|K|`` unique keys:
``p_k \\propto k^{-z}``.  This module provides the exact probability vector
and the derived quantities the analysis needs (head mass, p1, rank queries)
without requiring scipy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: How far a probability vector's sum may be from 1 — the tolerance
#: ``Generator.choice`` applies to float64 probabilities.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def sampling_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The normalised CDF :func:`inverse_cdf_draws` samples from.

    ``p.cumsum() / p.cumsum()[-1]`` — the table ``Generator.choice(...,
    p=p)`` rebuilds on every call, after the same checks (no NaN, no
    negative entry, a sum within ``sqrt(eps)`` of 1).  Build it once where
    the probabilities live — per distribution, per workload, per epoch —
    and keep it, with its :func:`guide_table`, for every draw.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 1 or probabilities.size == 0:
        raise ConfigurationError("probabilities must be a non-empty 1-D vector")
    total = float(probabilities.sum())
    if np.isnan(total):
        raise ConfigurationError("probabilities contain NaN")
    if (probabilities < 0).any():
        raise ConfigurationError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ConfigurationError(f"probabilities do not sum to 1 (sum = {total!r})")
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


#: CDF entries one block of :func:`guide_table` reads: its temporaries stay
#: a few hundred KB whatever the key space.
_GUIDE_BLOCK = 1 << 14

#: Steps a draw may take forward from its guide entry before the rest of
#: the chunk's stragglers go to one plain ``searchsorted``.
_PROBE_ROUNDS = 4


def guide_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table :func:`inverse_cdf_draws` starts each search from.

    ``G = 2**ceil(log2 K)`` ``int32`` entries for a CDF of ``K`` entries,
    ``guide[j] = cdf.searchsorted(j / G, "right")`` — the number of entries
    ``<= j / G`` (Chen & Asau's indexed search; Devroye, *Non-Uniform Random
    Variate Generation*, III.2.4).  Built from the CDF's side instead of
    searching ``G`` needles: ``cdf[i] <= j / G`` exactly when ``j >=
    ceil(cdf[i] * G)`` (a power-of-two scaling, so exact), so each entry
    raises its cell to its count, ``i + 1``, and a running maximum fills
    the cells between.  Blocks of :data:`_GUIDE_BLOCK` CDF entries keep
    every temporary that size: the table itself is the one ``G``-sized
    allocation.
    """
    size = 1 << (cdf.size - 1).bit_length()
    # Entries above (G - 1) / G count in no cell: one cell past the end
    # takes them.
    guide = np.zeros(size + 1, dtype=np.int32)
    for start in range(0, cdf.size, _GUIDE_BLOCK):
        cells = cdf[start : start + _GUIDE_BLOCK] * size
        np.ceil(cells, out=cells)
        counts = np.arange(start + 1, start + 1 + cells.size, dtype=np.int32)
        np.maximum.at(guide, cells.astype(np.intp), counts)
    guide = guide[:size]
    np.maximum.accumulate(guide, out=guide)
    return guide


def inverse_cdf_draws(cdf: np.ndarray, guide: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Zero-based inverse-CDF draws: ``cdf.searchsorted(uniforms, "right")``.

    With ``cdf = sampling_cdf(p)``, ``guide = guide_table(cdf)`` and
    ``uniforms = rng.random(size)`` this is, element for element and in
    dtype, ``rng.choice(len(p), size, p=p)`` — the lookup numpy does — with
    the generator consumed identically.

    A draw ``u`` starts at ``guide[floor(u * G)]``: ``u * G`` is exact, and
    ``floor(u * G) / G <= u``, so no entry before the start can be the
    answer.  It then steps forward while ``cdf[idx] <= u``, at most
    :data:`_PROBE_ROUNDS` times, each round over the draws still stepping;
    what is left — draws into a cell crowded with many CDF entries, the
    tail of a steep law — takes one plain ``searchsorted``.  Every draw is
    one gather from the guide and one from the CDF, where a binary search
    over a million-entry table misses the cache on each of its 20 levels.
    """
    draws = guide[(uniforms * guide.size).astype(np.intp)].astype(np.int64)
    pending = np.flatnonzero(cdf[draws] <= uniforms)
    for _ in range(_PROBE_ROUNDS):
        if not pending.size:
            break
        draws[pending] += 1
        pending = pending[cdf[draws[pending]] <= uniforms[pending]]
    if pending.size:
        draws[pending] = cdf.searchsorted(uniforms[pending], side="right")
    return draws


class ZipfDistribution:
    """Exact finite Zipf distribution ``p_k = k^{-z} / H_{|K|,z}``.

    Parameters
    ----------
    exponent:
        Skew parameter ``z``; 0 gives the uniform distribution.
    num_keys:
        Support size ``|K|``.

    Examples
    --------
    >>> dist = ZipfDistribution(exponent=2.0, num_keys=1000)
    >>> 0.55 < dist.p1 < 0.65     # most frequent key carries ~60% of the mass
    True
    >>> abs(sum(dist.probabilities) - 1.0) < 1e-9
    True
    """

    def __init__(self, exponent: float, num_keys: int) -> None:
        if exponent < 0.0:
            raise ConfigurationError(f"exponent must be >= 0, got {exponent}")
        if num_keys < 1:
            raise ConfigurationError(f"num_keys must be >= 1, got {num_keys}")
        self._exponent = float(exponent)
        self._num_keys = int(num_keys)
        ranks = np.arange(1, self._num_keys + 1, dtype=np.float64)
        weights = ranks ** (-self._exponent)
        self._probabilities = weights / weights.sum()
        # The tables are |K|-sized and each has few readers (fig4 / fig9
        # read prefix masses, streams sample): built on first use.
        self._cumulative: np.ndarray | None = None
        self._sampling_cdf: np.ndarray | None = None
        self._sampling_guide: np.ndarray | None = None

    @property
    def exponent(self) -> float:
        return self._exponent

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @property
    def probabilities(self) -> np.ndarray:
        """Probability vector indexed by rank - 1 (rank 1 is the hottest key)."""
        return self._probabilities

    @property
    def p1(self) -> float:
        """Probability of the most frequent key."""
        return float(self._probabilities[0])

    def probability(self, rank: int) -> float:
        """Probability of the key with the given 1-based rank."""
        if not 1 <= rank <= self._num_keys:
            raise ConfigurationError(
                f"rank {rank} outside [1, {self._num_keys}]"
            )
        return float(self._probabilities[rank - 1])

    def prefix_mass(self, length: int) -> float:
        """Total probability of the ``length`` most frequent keys."""
        if length <= 0:
            return 0.0
        length = min(length, self._num_keys)
        if self._cumulative is None:
            self._cumulative = np.cumsum(self._probabilities)
        return float(self._cumulative[length - 1])

    def tail_mass(self, head_length: int) -> float:
        """Total probability of every key of rank > ``head_length``."""
        return 1.0 - self.prefix_mass(head_length)

    def keys_above(self, threshold: float) -> int:
        """Number of keys with probability >= ``threshold``.

        Because probabilities are non-increasing in rank, this is the length
        of the maximal prefix above the threshold — exactly the cardinality
        of the head ``H`` for a given ``theta``.
        """
        if threshold <= 0.0:
            return self._num_keys
        # probabilities are sorted descending; find the last index >= threshold
        above = np.searchsorted(-self._probabilities, -threshold, side="right")
        return int(above)

    def expected_counts(self, num_messages: int) -> np.ndarray:
        """Expected absolute count per rank for a stream of ``num_messages``."""
        if num_messages < 0:
            raise ConfigurationError(
                f"num_messages must be >= 0, got {num_messages}"
            )
        return self._probabilities * num_messages

    @property
    def sampling_cdf(self) -> np.ndarray:
        """The normalised CDF draws are searched in (see :func:`sampling_cdf`).

        Not ``prefix_mass``'s table: that one is not divided by its last
        entry, so neither can stand in for the other without moving draws
        — or prefix masses — by an ulp.
        """
        if self._sampling_cdf is None:
            self._sampling_cdf = sampling_cdf(self._probabilities)
        return self._sampling_cdf

    @property
    def sampling_guide(self) -> np.ndarray:
        """The :func:`guide_table` of :attr:`sampling_cdf`, kept beside it."""
        if self._sampling_guide is None:
            self._sampling_guide = guide_table(self.sampling_cdf)
        return self._sampling_guide

    def sample_ranks(self, num_messages: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_messages`` key ranks (1-based) i.i.d. from the distribution.

        Element for element (and in dtype) what ``rng.choice(np.arange(1,
        |K| + 1), size=num_messages, p=probabilities)`` returns, consuming
        the generator identically (:func:`inverse_cdf_draws` on the kept
        :attr:`sampling_cdf` and :attr:`sampling_guide`).
        """
        if num_messages < 0:
            raise ConfigurationError(
                f"num_messages must be >= 0, got {num_messages}"
            )
        cdf, guide = self.sampling_cdf, self.sampling_guide
        return inverse_cdf_draws(cdf, guide, rng.random(num_messages)) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ZipfDistribution(exponent={self._exponent}, num_keys={self._num_keys})"


@lru_cache(maxsize=256)
def zipf_probabilities(exponent: float, num_keys: int) -> tuple[float, ...]:
    """Cached probability vector; convenient for repeated analytical sweeps."""
    return tuple(ZipfDistribution(exponent, num_keys).probabilities.tolist())


def empirical_probabilities(counts: Sequence[int]) -> np.ndarray:
    """Normalise raw key counts into a descending probability vector.

    Used to feed measured workloads (e.g. the synthetic Wikipedia-like trace)
    into the analytical routines that expect a distribution.
    """
    array = np.asarray(sorted(counts, reverse=True), dtype=np.float64)
    if array.size == 0:
        raise ConfigurationError("counts must not be empty")
    if np.any(array < 0):
        raise ConfigurationError("counts must be non-negative")
    total = array.sum()
    if total == 0:
        raise ConfigurationError("counts must not all be zero")
    return array / total
