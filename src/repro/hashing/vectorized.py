"""Vectorized SplitMix64 hashing over numpy ``uint64`` arrays.

The scalar path in :mod:`repro.hashing.hash_family` mixes one 64-bit word at
a time in pure Python.  That is fine for a single lookup but dominates the
routing hot path when a partitioner needs ``d`` candidates for every message
of a stream.  This module applies the *same* SplitMix64 finalizer to whole
arrays at once, so hashing a batch of ``m`` keys under ``d`` functions is a
handful of numpy kernels over an ``(m, d)`` array instead of ``m * d``
Python-level mixes.

Bit-exactness matters: batched and scalar routing must produce identical
candidate workers (multiple sources agree on a key's candidates purely
through hashing).  ``splitmix64_array`` therefore mirrors
``hash_family._splitmix64`` operation for operation; unsigned 64-bit
overflow wraps in numpy exactly as the ``& _MASK64`` masking does in Python.
The equivalence is pinned by ``tests/hashing/test_vectorized.py``.
"""

from __future__ import annotations

import numpy as np

#: SplitMix64 constants — must match :mod:`repro.hashing.hash_family`.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer elementwise to a ``uint64`` array.

    Returns a new array; the input is not modified.  Overflow wraps modulo
    2^64, which is the defined behaviour of the mixing function.
    """
    x = x + _GAMMA
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


def bucketed_hashes(
    key_ints: np.ndarray, mixed_seeds: np.ndarray, num_buckets: int
) -> np.ndarray:
    """Hash every key under every seed and reduce onto ``[0, num_buckets)``.

    Parameters
    ----------
    key_ints:
        ``uint64`` array of serialised keys (one entry per message), i.e. the
        output of ``hash_family._key_to_int`` for each key.
    mixed_seeds:
        ``uint64`` array of *pre-mixed* per-function seeds, i.e.
        ``splitmix64(sub_seed)`` for each function of the family.
    num_buckets:
        Codomain size ``n``.

    Returns
    -------
    ``int64`` array of shape ``(len(key_ints), len(mixed_seeds))`` whose
    ``[i, j]`` entry equals ``stable_hash(key_i, sub_seed_j) % num_buckets``.
    """
    mixed = splitmix64_array(key_ints[:, None] ^ mixed_seeds[None, :])
    return (mixed % np.uint64(num_buckets)).astype(np.int64)
