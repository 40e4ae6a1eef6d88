"""A family of independent, seeded hash functions over arbitrary keys.

Python's built-in :func:`hash` is randomised per process (for strings) and is
not seedable, so it cannot provide the *d* independent functions
``F_1 ... F_d`` required by the Greedy-d process.  Instead we serialise the
key deterministically and run it through a 64-bit mixing function
(SplitMix64-style finalizer) keyed by a per-function seed.  This gives:

* determinism across processes and runs (important for reproducible
  experiments and for multiple sources agreeing on the candidate workers of a
  key, exactly as hash-based routing does in a real DSPE);
* near-uniform output, which is the "ideal hash function" assumption used in
  the paper's analysis (Appendix A).
"""

from __future__ import annotations

import operator
import struct
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fifo_map import FifoMap
from repro.hashing.vectorized import bucketed_hashes
from repro.types import Key, WorkerId

_MASK64 = (1 << 64) - 1

#: Upper bound on the number of keys each :class:`HashFamily` interns.  The
#: cache is FIFO-evicted, so a family never holds more than this many
#: candidate tuples regardless of stream cardinality.
_CANDIDATE_CACHE_LIMIT = 1 << 16

#: Key types the interning cache may hold.  Dict lookups use ``==``, which
#: crosses types (``-1 == -1.0 == True`` all collide as dict keys) while
#: ``_key_to_int`` deliberately folds those differently — so only exact
#: types that never compare equal to another hashable type are cached;
#: everything else (bool, float, tuples, None) is folded afresh
#: on every call.  Note ``type(True) is bool``, so bools are excluded here
#: automatically.
_CACHEABLE_TYPES = frozenset({str, bytes, int})

# SplitMix64 constants (Steele et al., "Fast splittable pseudorandom number
# generators").  They provide excellent avalanche behaviour for 64-bit words.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    """Finalise a 64-bit word with the SplitMix64 mixing function."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# The same constants as numpy scalars: uint64 arithmetic wraps modulo 2**64
# exactly as the ``& _MASK64`` of the scalar fold does.
_GAMMA_U64 = np.uint64(_GAMMA)
_FNV_OFFSET_U64 = np.uint64(_FNV_OFFSET)
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME)


#: What ``None`` folds to: any fixed word (builtin ``hash(None)`` is the
#: object's address on CPython before 3.12).
_NONE_WORD = 0x6E6F6E65C0FFEE00

#: Xored into the accumulator of a tuple and of a non-integral float, so
#: neither shares its fold with a string or an integer of the same words.
_TUPLE_TAG = 0x7475706C65D1CE5A
_FLOAT_TAG = 0x666C6F6174B17500


def _key_to_int(key: Key) -> int:
    """Serialise a key into a 64-bit integer, the same in every process.

    Strings and bytes are folded eight bytes at a time (``int.from_bytes``
    runs the chunk conversion in C) with an FNV-1a style multiply between
    chunks, so similar keys ("word1", "word2") still land far apart after
    mixing.  The length is xored into the accumulator so prefixes of each
    other ("a", "a\\x00") stay distinct.  Integers are used directly (any
    ``__index__`` type: numpy integers fold as the ``int`` they equal), and
    ``bool`` is kept apart from 0 / 1.  A float equal to an integer folds as
    that integer (as it did through ``hash()``, and as ``(1.0,) == (1,)``
    needs inside a tuple); any other float folds its IEEE-754 bits.
    ``None`` is a constant, and a tuple folds its elements in order with the
    same multiply, so keys equal as tuples fold alike.

    Nothing here reads builtin ``hash()``, which is salted per process for
    text: any other type raises :class:`TypeError` rather than route by it.
    """
    if isinstance(key, bool):  # bool is an int subclass; keep it distinct
        return int(key) + 0x5BF03635
    if isinstance(key, int):
        return key & _MASK64
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    elif isinstance(key, float):
        if key.is_integer():
            return int(key) & _MASK64
        return struct.unpack("<Q", struct.pack("<d", key))[0] ^ _FLOAT_TAG
    elif isinstance(key, tuple):
        acc = (_FNV_OFFSET ^ _TUPLE_TAG ^ (len(key) * _GAMMA)) & _MASK64
        for item in key:
            # Inside a tuple a bool folds as the int it equals: the
            # dictionary keys tuples by ``==``, and ``(True,) == (1,)``.
            word = _key_to_int(int(item) if isinstance(item, bool) else item)
            acc = ((acc ^ word) * _FNV_PRIME) & _MASK64
        return acc
    elif key is None:
        return _NONE_WORD
    elif hasattr(type(key), "__index__"):
        return operator.index(key) & _MASK64
    else:
        raise TypeError(
            f"cannot fold a key of type {type(key).__name__!r}: keys are int, str, "
            "bytes, float, None or tuples of them"
        )
    length = len(data)
    if length <= 8:
        # XOR the offset basis so short strings stay distinct from the raw
        # integers they would otherwise equal ('' vs 0, '\x01' vs 1, ...).
        return int.from_bytes(data, "little") ^ (((length * _GAMMA) ^ _FNV_OFFSET) & _MASK64)
    acc = (_FNV_OFFSET ^ (length * _GAMMA)) & _MASK64
    for start in range(0, length, 8):
        acc = ((acc ^ int.from_bytes(data[start : start + 8], "little"))
               * _FNV_PRIME) & _MASK64
    return acc


#: Longest encoded key :func:`fold_keys` folds as array columns.  One key of
#: a chunk sets the padded width of every row, so an outlier past this
#: sends the chunk down the per-key route instead of widening them all.
_FOLD_MAX_BYTES = 64

#: Shortest text list folded as columns.  The array form costs a fixed
#: 6-10 us of numpy calls and ~0.1 us per key, the scalar fold 0.5-1.1 us
#: per key and nothing fixed: they cross at 12-16 keys, which is where the
#: new keys of a 25-64-key ``route_batch`` list fall.
_FOLD_MIN_KEYS = 16


def fold_keys(keys: Sequence[Key]) -> np.ndarray:
    """:func:`_key_to_int` of every key of a list, as one ``uint64`` array.

    Bit for bit the scalar fold — the hypothesis suite in
    ``tests/hashing/test_vectorized.py`` holds the two together — at array
    speed for the two shapes streams are made of:

    * all ``int``: an int's fold is ``key & (2**64 - 1)``, i.e. its
      two's-complement ``int64`` reinterpreted as unsigned (integers
      outside ``int64`` take the per-key route);
    * at least 16 keys, all ``str`` or all ``bytes``, none longer than 64
      encoded bytes: the chunk becomes one fixed-width bytes array viewed
      as little-endian 8-byte columns, and the FNV-1a multiply runs once
      per *column*, under a mask of the keys long enough to have that
      chunk.  numpy zero-pads a short row exactly as ``int.from_bytes``
      reads a short last chunk, so empty keys, embedded and trailing NULs
      and multi-byte UTF-8 need no special case.

    Anything else — mixed types, ``bool``, ``float``, tuples, subclasses,
    a long key, a handful of keys — folds one key at a time.
    """
    count = len(keys)
    types = set(map(type, keys))
    if types == {int}:
        try:
            return np.array(keys, dtype=np.int64).view(np.uint64)
        except OverflowError:
            pass
    elif count >= _FOLD_MIN_KEYS and (types == {str} or types == {bytes}):
        encoded = list(map(str.encode, keys)) if types == {str} else keys
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=count)
        longest = int(lengths.max())
        if longest <= _FOLD_MAX_BYTES:
            words = max(1, -(-longest // 8))
            columns = (
                np.array(encoded, dtype=f"S{8 * words}")
                .view("<u8")
                .reshape(count, words)
            )
            acc = (lengths.astype(np.uint64) * _GAMMA_U64) ^ _FNV_OFFSET_U64
            short = columns[:, 0] ^ acc
            if words == 1:
                return short
            for word in range(words):
                # Whatever this leaves in the rows of keys <= 8 bytes is
                # dropped below, so the first two columns need no mask.
                stepped = (acc ^ columns[:, word]) * _FNV_PRIME_U64
                acc = stepped if word < 2 else np.where(
                    lengths > 8 * word, stepped, acc
                )
            return np.where(lengths <= 8, short, acc)
    return np.fromiter(map(_key_to_int, keys), dtype=np.uint64, count=count)


def stable_hash(key: Key, seed: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``key`` under ``seed``.

    This is the primitive used everywhere the paper assumes an ideal hash
    function.  Different seeds give (empirically) independent functions.
    """
    return _splitmix64(_key_to_int(key) ^ _splitmix64(seed & _MASK64))


#: Head keys whose raw hash tuples one (dictionary, hash identity) keeps;
#: FIFO-evicted beyond this.  Head keys are few by definition (at most the
#: sketch capacity at any instant), so the bound only matters on long runs
#: with drifting heads.
_HEAD_PREFIX_LIMIT = 1 << 14


class _IdTable:
    """Candidate buckets per key id, for one hash identity over one dictionary.

    ``rows[kid, j]`` is the ``j``-th candidate bucket of the key behind id
    ``kid`` — computed from the dictionary's *folded key*, never from the id
    itself, so gathers from this table are bit-identical to hashing the
    original keys.  Function ``j``'s sub-seed depends only on the family's
    seed and ``j``, so every family of that seed and bucket count — whatever
    its size, whichever sender holds it — reads these columns.  The table
    grows lazily (capacity-doubled) as the dictionary interns new keys and
    is rebuilt wider when a larger ``d`` is requested (candidate tuples are
    prefix-stable, so a wide table serves every smaller ``d`` by column
    slicing); ``seeds`` are the mixed seeds of its columns.

    ``heads`` holds the head keys' raw hash tuples instead, hashed straight
    from the folded key on a miss and only ever extended: a head key may
    ask for up to ``n`` candidates, and serving a handful of ids must not
    widen a table that holds a row for every key of the stream.
    """

    __slots__ = ("seeds", "filled", "rows", "heads")

    def __init__(self) -> None:
        self.seeds = np.empty(0, dtype=np.uint64)
        self.filled = 0
        self.rows = np.empty((0, 0), dtype=np.int64)
        self.heads: FifoMap[int, tuple[WorkerId, ...]] = FifoMap(_HEAD_PREFIX_LIMIT)


class HashFamily:
    """An indexed family of ``d`` independent hash functions onto ``[0, n)``.

    Parameters
    ----------
    num_functions:
        Size of the family (the maximum ``d`` any caller will request).
    num_buckets:
        Size of the codomain, i.e. the number of workers ``n``.
    seed:
        Base seed; families created with the same seed are identical, which
        is how multiple sources agree on a key's candidate workers without
        a routing table.

    Examples
    --------
    >>> family = HashFamily(num_functions=2, num_buckets=10, seed=42)
    >>> candidates = family.candidates("apple")
    >>> len(candidates)
    2
    >>> all(0 <= c < 10 for c in candidates)
    True
    >>> family.candidates("apple") == candidates   # deterministic
    True
    """

    def __init__(
        self,
        num_functions: int,
        num_buckets: int,
        seed: int = 0,
    ) -> None:
        if num_functions < 1:
            raise ConfigurationError(
                f"need at least one hash function, got {num_functions}"
            )
        if num_buckets < 1:
            raise ConfigurationError(
                f"need at least one bucket, got {num_buckets}"
            )
        self._num_functions = num_functions
        self._num_buckets = num_buckets
        self._seed = seed
        # Pre-mix one sub-seed per function so that function i is keyed by a
        # well-separated 64-bit constant rather than by the small integer i.
        sub_seeds = (
            _splitmix64((seed & _MASK64) + i * _GAMMA) for i in range(num_functions)
        )
        # stable_hash(key, s) == splitmix64(key_int ^ splitmix64(s)); the
        # inner mix only depends on the sub-seed, so do it once here.
        self._mixed_seeds = tuple(_splitmix64(s) for s in sub_seeds)
        self._mixed_seeds_np = np.array(self._mixed_seeds, dtype=np.uint64)
        # Interning cache: a key's candidate tuple is derived once rather
        # than per message.  Candidate tuples are prefix-stable in d, so one
        # cached tuple serves every smaller d via slicing.
        self._candidate_cache: FifoMap[Key, tuple[WorkerId, ...]] = FifoMap(
            _CANDIDATE_CACHE_LIMIT
        )
        # What the columnar id paths read is owned by the key dictionary,
        # under this hash identity (see _rows).
        self._identity = (seed, num_buckets)

    @property
    def num_functions(self) -> int:
        return self._num_functions

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    @property
    def seed(self) -> int:
        return self._seed

    def candidates(self, key: Key, d: int | None = None) -> tuple[WorkerId, ...]:
        """Return the first ``d`` candidate buckets for ``key``.

        ``d`` defaults to the full family size.  Duplicates are *not*
        removed: the paper's analysis explicitly accounts for hash collisions
        among the d choices (the ``b_h`` term), so the raw multiset is what
        callers need.

        Results are interned: the first lookup of a key folds and mixes it,
        repeat lookups (the overwhelmingly common case on skewed streams)
        return the cached tuple.
        """
        d = self._check_d(d)
        if type(key) not in _CACHEABLE_TYPES:
            return self._mix(_key_to_int(key), d)
        cache = self._candidate_cache
        cached = cache.get(key)
        if cached is not None:
            length = len(cached)
            if length == d:
                return cached
            if length > d:
                return cached[:d]
        result = self._mix(_key_to_int(key), d)
        cache.insert(key, result)
        return result

    def _mix(self, folded: int, d: int, start: int = 0) -> tuple[WorkerId, ...]:
        """Buckets ``start .. d`` of a key already folded to 64 bits."""
        buckets = self._num_buckets
        return tuple(
            _splitmix64(folded ^ mixed) % buckets
            for mixed in self._mixed_seeds[start:d]
        )

    def candidates_batch_columns(
        self, keys: Sequence[Key], d: int | None = None
    ) -> list[list[int]]:
        """Candidate buckets of a key list, column-major, without a dictionary.

        Returns ``d`` flat ``int`` lists such that ``result[j][i]`` is the
        ``j``-th candidate of ``keys[i]``.  No routing path calls this any
        more — partitioners intern first and gather from the per-id tables
        — it remains the key-list hashing probe of the repo benchmark
        (``bench/layers.py``) and of the bit-exactness tests.
        """
        d = self._check_d(d)
        matrix = bucketed_hashes(
            fold_keys(keys), self._mixed_seeds_np[:d], self._num_buckets
        )
        return [matrix[:, j].tolist() for j in range(d)]

    def _check_d(self, d: int | None) -> int:
        if d is None:
            return self._num_functions
        if not 1 <= d <= self._num_functions:
            raise ConfigurationError(
                f"requested d={d} outside [1, {self._num_functions}]"
            )
        return d

    def _rows(self, dictionary) -> _IdTable:
        """``dictionary``'s candidate rows under this family's hash identity."""
        store = dictionary.hash_rows
        table = store.get(self._identity)
        if table is None:
            table = _IdTable()
            store.insert(self._identity, table)
        return table

    def _id_table(self, dictionary, d: int) -> np.ndarray:
        """The (grown-to-date) candidate table for ``dictionary``, ≥ ``d`` wide."""
        table = self._rows(dictionary)
        if table.seeds.size < d:
            table.seeds = self._mixed_seeds_np[:d]
            table.filled = 0
            table.rows = np.empty((0, d), dtype=np.int64)
        size = len(dictionary)
        if table.filled < size:
            if size > table.rows.shape[0]:
                capacity = max(size, table.rows.shape[0] * 2, 1024)
                grown = np.empty((capacity, table.seeds.size), dtype=np.int64)
                grown[: table.filled] = table.rows[: table.filled]
                table.rows = grown
            table.rows[table.filled : size] = bucketed_hashes(
                dictionary.folded[table.filled : size], table.seeds, self._num_buckets
            )
            table.filled = size
        return table.rows

    def id_candidate_rows(self, ids: np.ndarray, dictionary, d: int | None = None) -> np.ndarray:
        """Row-major candidate buckets for an id array (columnar fast path).

        ``dictionary`` is the :class:`~repro.workloads.columnar.KeyDictionary`
        that issued ``ids``.  Row ``i`` equals ``candidates(key_of(ids[i]), d)``
        bit for bit, but the batch runs as a single table gather: candidates
        per id are computed once per hash identity into a table the
        dictionary owns (see :class:`_IdTable`), shared by every family of
        that seed and bucket count.  A rescale changes the bucket count, so
        it reads another table; nothing is invalidated.
        """
        d = self._check_d(d)
        return self._id_table(dictionary, d)[ids, :d]

    def id_candidate_columns(self, ids: np.ndarray, dictionary, d: int | None = None) -> list[list[int]]:
        """Column-major :meth:`id_candidate_rows` (allocation-free walking)."""
        d = self._check_d(d)
        rows = self._id_table(dictionary, d)
        return [rows[ids, j].tolist() for j in range(d)]

    def candidates_for_id(self, kid: int, dictionary, d: int | None = None) -> tuple[WorkerId, ...]:
        """Scalar :meth:`candidates` addressed by key id.

        For head keys, which ask for their ``d`` candidates once each: the
        tuple is kept in the dictionary's ``heads`` store of this hash
        identity (see :class:`_IdTable`), as long as the largest ``d`` any
        family asked for, and only functions past what it holds are hashed
        — each (id, function) pair is hashed once per dictionary.
        """
        d = self._check_d(d)
        heads = self._rows(dictionary).heads
        prefix = heads.get(kid, ())
        if len(prefix) < d:
            prefix += self._mix(int(dictionary.folded[kid]), d, len(prefix))
            heads.insert(kid, prefix)
        return prefix[:d]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashFamily(num_functions={self._num_functions}, "
            f"num_buckets={self._num_buckets}, seed={self._seed})"
        )
