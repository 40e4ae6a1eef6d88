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
        # Both tables are |K| floats and each has few readers (fig4 / fig9
        # read prefix masses, streams sample): built on first use.
        self._cumulative: np.ndarray | None = None
        self._sampling_cdf: np.ndarray | None = None

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

    def sample_ranks(self, num_messages: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_messages`` key ranks (1-based) i.i.d. from the distribution.

        Element for element (and in dtype) what ``rng.choice(np.arange(1,
        |K| + 1), size=num_messages, p=probabilities)`` returns, consuming
        the generator identically: the same inverse-CDF lookup numpy does,
        on a CDF that is accumulated, normalised and kept once instead of
        re-validated and rebuilt from the |K|-entry table on every call.
        (``_cumulative`` is not normalised by its last entry, so it cannot
        stand in without moving draws — or prefix masses — by an ulp.)
        """
        if num_messages < 0:
            raise ConfigurationError(
                f"num_messages must be >= 0, got {num_messages}"
            )
        if self._sampling_cdf is None:
            cdf = self._probabilities.cumsum()
            cdf /= cdf[-1]
            self._sampling_cdf = cdf
        uniforms = rng.random(num_messages)
        return self._sampling_cdf.searchsorted(uniforms, side="right") + 1

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
