"""Hashing substrate.

The grouping schemes of the paper assume "ideal" independent hash functions
``F_1 ... F_d`` mapping keys uniformly at random onto the worker set.  This
subpackage provides:

* :class:`~repro.hashing.hash_family.HashFamily` — an indexed family of
  seeded 64-bit mixing hash functions, the workhorse used by every
  partitioner;
* :func:`~repro.hashing.hash_family.fold_keys` — the one vectorised fold of
  a key list (ints, text, bytes) to the 64-bit words the family mixes, bit
  for bit the scalar ``_key_to_int``;
* :class:`~repro.hashing.universal.MultiplyShiftHash` — a classic universal
  hash for integer keys, useful in property tests about collision behaviour;
* :mod:`~repro.hashing.vectorized` — numpy SplitMix64 kernels that fill the
  per-key-id candidate tables (:meth:`HashFamily.id_candidate_rows`) the
  routing id kernels gather from;
* :class:`~repro.hashing.consistent.ConsistentHashRing` — a consistent-hash
  ring with virtual nodes, used as a related-work baseline (routing-table-free
  key grouping with smooth worker addition/removal).
"""

from repro.hashing.consistent import ConsistentHashRing
from repro.hashing.hash_family import HashFamily, fold_keys, stable_hash
from repro.hashing.universal import MultiplyShiftHash, TabulationHash
from repro.hashing.vectorized import bucketed_hashes, splitmix64_array

__all__ = [
    "ConsistentHashRing",
    "HashFamily",
    "MultiplyShiftHash",
    "TabulationHash",
    "bucketed_hashes",
    "fold_keys",
    "splitmix64_array",
    "stable_hash",
]
