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
* :mod:`~repro.hashing.vectorized` — numpy SplitMix64 kernels that fill the
  per-key-id candidate tables (:meth:`HashFamily.id_candidate_rows`) the
  routing id kernels gather from.  The tables, and the head keys' longer
  hash tuples (:meth:`HashFamily.candidates_for_id`), belong to the
  :class:`~repro.workloads.columnar.KeyDictionary` that issued the ids, one
  store per hash identity ``(seed, num_buckets)``: every family of that
  identity — every sender of a group — reads them, and they live as long
  as the dictionary (bounded to its latest few identities);
* :class:`~repro.hashing.consistent.ConsistentHashRing` — a consistent-hash
  ring with virtual nodes, used as a related-work baseline (routing-table-free
  key grouping with smooth worker addition/removal).
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".consistent": ("ConsistentHashRing",),
        ".hash_family": ("HashFamily", "fold_keys", "stable_hash"),
        ".vectorized": ("bucketed_hashes", "splitmix64_array"),
    },
)

__all__ = [
    "ConsistentHashRing",
    "HashFamily",
    "bucketed_hashes",
    "fold_keys",
    "splitmix64_array",
    "stable_hash",
]
