"""Columnar stream batches: interned key-ids plus payload indices.

The scalar pipeline moves Python objects (strings, ints) from the workload
generator through ``route_batch`` into the operators; every layer re-hashes
or re-interns the same keys.  The columnar pipeline interns each distinct
key exactly **once** at the source into a stream-level :class:`KeyDictionary`
and then moves plain ``int64`` arrays:

* :class:`KeyDictionary` — an append-only bijection ``key <-> id``.  Ids are
  dense (``0, 1, 2, ...`` in first-appearance order), never reused, and the
  64-bit folded form of every key (the input of the SplitMix64 hash family)
  is stored alongside, so downstream hashing can run on contiguous numpy
  arrays without ever touching the original key objects.
* :class:`ColumnarBatch` — one chunk of the stream: an ``int64`` id array,
  the dictionary that decodes it, and the stream offset of its first
  message (the payload index of message ``j`` is ``base_index + j``).

Routing results are byte-identical between the two representations: the
dictionary keeps the *folded key*, not the id, as the hash input, so a
columnar route of ``ids`` equals a scalar route of the decoded keys bit for
bit.  The property tests in ``tests/property/test_columnar_equivalence.py``
pin that contract.

A dictionary may be *bounded* (``max_keys``): the forward ``key -> id`` map
then evicts its oldest entries FIFO-style, like the hash-family caches it
generalises.  Eviction only forgets the forward direction — already-issued
ids stay decodable forever — so a re-appearing key simply gets a fresh id.
Bounded mode trades a little id-table growth for a hard cap on the forward
map, which matters for unbounded key spaces (e.g. file replays).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import WorkloadError
from repro.hashing.hash_family import _key_to_int
from repro.types import Key

#: Issues a process-unique token per dictionary.  Hash families key their
#: per-id candidate tables on this token; ``id(dictionary)`` would be unsafe
#: because CPython reuses addresses of collected objects.
_TOKENS = itertools.count()

_GROW = 1024

#: Key types that share the plain forward map.  Dict lookups use ``==``,
#: which crosses types (``1 == True == 1.0``), while ``_key_to_int`` folds
#: those differently — so only exact types that never compare equal to a
#: value of another hashable type go in as themselves; anything else (bool,
#: float, tuples, custom objects) is keyed by ``(type, key)``.  That makes
#: ``id <-> key`` a bijection under the hash family's notion of identity.
_PLAIN_TYPES = frozenset({str, bytes, int})


def _forward_key(key: Key):
    return key if type(key) in _PLAIN_TYPES else (type(key), key)


def _fold_keys(keys: list[Key]) -> np.ndarray:
    """``_key_to_int`` of every key, as ``uint64``.

    Plain integer chunks (the cold case of every integer key space) fold in
    one numpy conversion: an int's fold is ``key & (2**64 - 1)``, which is
    its two's-complement ``int64`` reinterpreted as unsigned.  Integers
    outside ``int64`` take the per-key route with everything else.
    """
    if set(map(type, keys)) == {int}:
        try:
            return np.asarray(keys, dtype=np.int64).view(np.uint64)
        except OverflowError:
            pass
    return np.fromiter(map(_key_to_int, keys), dtype=np.uint64, count=len(keys))


class KeyDictionary:
    """Append-only interning dictionary: stable dense ids for stream keys.

    Parameters
    ----------
    max_keys:
        Optional bound on the forward ``key -> id`` map.  ``None`` (default)
        interns without limit; a positive value evicts the oldest forward
        entries FIFO-style once the map is full.  Reverse lookups
        (:meth:`key_of`, :meth:`decode`) are unaffected by eviction.
    """

    __slots__ = ("_forward", "_keys", "_folded", "_size", "_max_keys", "token")

    def __init__(self, max_keys: int | None = None) -> None:
        if max_keys is not None and max_keys < 1:
            raise WorkloadError(f"max_keys must be >= 1 or None, got {max_keys}")
        self._forward: dict[Key, int] = {}
        self._keys = np.empty(_GROW, dtype=object)
        self._folded = np.empty(_GROW, dtype=np.uint64)
        self._size = 0
        self._max_keys = max_keys
        self.token = next(_TOKENS)

    def __len__(self) -> int:
        """Number of ids issued so far (monotone, unaffected by eviction)."""
        return self._size

    @property
    def max_keys(self) -> int | None:
        return self._max_keys

    @property
    def folded(self) -> np.ndarray:
        """``uint64`` view of the folded key per id (hash-family input)."""
        return self._folded[: self._size]

    def _grow(self, needed: int) -> None:
        capacity = self._keys.size
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        keys = np.empty(new_capacity, dtype=object)
        keys[: self._size] = self._keys[: self._size]
        folded = np.empty(new_capacity, dtype=np.uint64)
        folded[: self._size] = self._folded[: self._size]
        self._keys = keys
        self._folded = folded

    def _append(self, keys: list[Key]) -> None:
        """Issue the next ``len(keys)`` ids to ``keys`` in one bulk store."""
        start = self._size
        stop = start + len(keys)
        self._grow(stop)
        self._keys[start:stop] = np.fromiter(keys, dtype=object, count=len(keys))
        self._folded[start:stop] = _fold_keys(keys)
        self._size = stop

    def intern(self, key: Key) -> int:
        """Return the id of ``key``, issuing a fresh one on first sight."""
        lookup = _forward_key(key)
        forward = self._forward
        kid = forward.get(lookup)
        if kid is None:
            # One key: two scalar stores beat the bulk append's array setup.
            kid = self._size
            self._grow(kid + 1)
            self._keys[kid] = key
            self._folded[kid] = _key_to_int(key)
            self._size = kid + 1
            forward[lookup] = kid
            if self._max_keys is not None and len(forward) > self._max_keys:
                del forward[next(iter(forward))]
        return kid

    def intern_keys(self, keys: Iterable[Key]) -> np.ndarray:
        """Intern a sequence of keys, returning their ids as ``int64``.

        Ids are issued in first-appearance order, exactly as element-wise
        :meth:`intern` would; the chunk's new keys are stored with one
        array append instead of one numpy scalar store each.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        if set(map(type, keys)) <= _PLAIN_TYPES:
            lookups = keys
        else:
            lookups = [_forward_key(key) for key in keys]
        forward = self._forward
        max_keys = self._max_keys
        base = self._size
        fresh: list = []  # forward keys of the chunk's new keys, in order

        def issue(lookup) -> int:
            kid = base + len(fresh)
            fresh.append(lookup)
            forward[lookup] = kid
            if max_keys is not None and len(forward) > max_keys:
                del forward[next(iter(forward))]
            return kid

        get = forward.get
        out = [
            kid if (kid := get(lookup)) is not None else issue(lookup)
            for lookup in lookups
        ]
        if fresh:
            # A wrapped forward key is the only tuple that can appear here:
            # tuple stream keys are themselves wrapped.
            self._append(
                [lookup[1] if type(lookup) is tuple else lookup for lookup in fresh]
            )
        return np.asarray(out, dtype=np.int64)

    def intern_int_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized interning of an integer key array.

        Only the *distinct* values of the chunk pass through Python; the
        scatter back to per-message ids is pure numpy.  First-appearance
        order within the chunk is preserved (``np.unique`` sorts, so new
        unique values are re-visited in stream order to issue ids), keeping
        id numbering identical to element-wise :meth:`intern`.
        """
        return self.intern_mapped_array(values, None)

    def intern_mapped_array(self, values, key_fn) -> np.ndarray:
        """Intern an integer draw array whose keys are ``key_fn(value)``.

        Generalises :meth:`intern_int_array` for workloads that draw integer
        indices but name their keys (e.g. ``head-0`` / ``key-42``):
        ``key_fn`` maps a drawn value to the key object, and is only called
        for the chunk's *distinct* values.  ``key_fn=None`` means the values
        are the keys (plain integer key spaces).
        """
        values = np.asarray(values)
        uniques, inverse = np.unique(values, return_inverse=True)
        unique_keys = uniques.tolist()
        if key_fn is not None:
            unique_keys = [key_fn(value) for value in unique_keys]
        get = self._forward.get
        known = [get(_forward_key(key)) for key in unique_keys]
        if None in known:
            # At least one new key: replay the distinct keys in stream order
            # so ids are issued by first appearance, not by sorted value.
            first_positions = np.full(uniques.size, -1, dtype=np.int64)
            order = np.arange(values.size - 1, -1, -1)
            first_positions[inverse[order]] = order
            by_appearance = np.argsort(first_positions)
            id_map = np.empty(uniques.size, dtype=np.int64)
            id_map[by_appearance] = self.intern_keys(
                [unique_keys[position] for position in by_appearance.tolist()]
            )
        else:
            id_map = np.asarray(known, dtype=np.int64)
        return id_map[inverse].astype(np.int64, copy=False)

    def lookup(self, key: Key) -> int | None:
        """The current id of ``key``, or ``None`` if absent / evicted."""
        return self._forward.get(_forward_key(key))

    def key_of(self, kid: int) -> Key:
        """Decode one id back to its key (works even after eviction)."""
        if not 0 <= kid < self._size:
            raise WorkloadError(f"key id {kid} outside [0, {self._size})")
        return self._keys[kid]

    def decode(self, ids: np.ndarray | Sequence[int]) -> list[Key]:
        """Decode an id array back to a key list in one vectorized gather."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self._size):
            raise WorkloadError("id array contains out-of-range ids")
        return self._keys[: self._size][ids].tolist()


class ColumnarBatch:
    """One chunk of a columnar stream.

    ``ids[j]`` is the interned key-id of the chunk's ``j``-th message and
    ``base_index + j`` its payload index (position in the overall stream).
    Batches are cheap views — slicing shares the underlying id array.
    """

    __slots__ = ("ids", "dictionary", "base_index")

    def __init__(
        self,
        ids: np.ndarray,
        dictionary: KeyDictionary,
        base_index: int = 0,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.dictionary = dictionary
        self.base_index = base_index

    def __len__(self) -> int:
        return int(self.ids.size)

    def keys(self) -> list[Key]:
        """Decode back to the key list the scalar path would have carried."""
        return self.dictionary.decode(self.ids)

    def indices(self) -> np.ndarray:
        """Payload indices of the batch (``base_index + arange(len)``)."""
        return np.arange(
            self.base_index, self.base_index + self.ids.size, dtype=np.int64
        )

    def slice(self, start: int, stop: int) -> "ColumnarBatch":
        """A zero-copy sub-batch covering messages ``[start, stop)``."""
        return ColumnarBatch(
            self.ids[start:stop], self.dictionary, self.base_index + start
        )

    def strided(self, offset: int, step: int) -> "ColumnarBatch":
        """The sub-stream ``offset, offset+step, ...`` (per-source slicing).

        The result's ``base_index`` is the position of its first message in
        the parent batch's frame.
        """
        return ColumnarBatch(
            self.ids[offset::step], self.dictionary, self.base_index + offset
        )


def iter_batches_columnar(
    source: Iterable[Key],
    batch_size: int = 8192,
    dictionary: KeyDictionary | None = None,
    base_index: int = 0,
) -> Iterator[ColumnarBatch]:
    """Chunk any key iterable into :class:`ColumnarBatch` es.

    Generic fallback for iterables without a native columnar generator;
    interning is element-wise, one bulk dictionary append per chunk.
    """
    if batch_size < 1:
        raise WorkloadError(f"batch_size must be >= 1, got {batch_size}")
    dictionary = dictionary if dictionary is not None else KeyDictionary()
    iterator = iter(source)
    index = base_index
    while chunk := list(itertools.islice(iterator, batch_size)):
        yield ColumnarBatch(dictionary.intern_keys(chunk), dictionary, index)
        index += len(chunk)
