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

What is bulk and what stays per key: the array entry points
(:meth:`KeyDictionary.intern_int_array` / ``intern_mapped_array``, used by
every array-backed workload) run Python per *chunk* — lookup, ordering,
id issue, store and fold are one C-level call each over the chunk's
distinct keys.  :meth:`KeyDictionary.intern_keys` (key lists) probes the
forward map per message in a Python loop and is bulk only in its store and
fold.

Routing results are byte-identical between the two representations: the
dictionary keeps the *folded key*, not the id, as the hash input, so a
columnar route of ``ids`` equals a scalar route of the decoded keys bit for
bit.  The property tests in ``tests/property/test_columnar_equivalence.py``
pin that contract.

One key, one id, for the life of a dictionary: the forward map is never
bounded.  The head/tail schemes key their SpaceSaving table by id, so a key
that came back under a fresh id would split its count between two counters
and fall out of the head.  The map is an index over the key column that
:meth:`KeyDictionary.forward_map` catches up on first read: routing, the
engines and the runtime work in ids and decode through the key column, so
an array chunk, integer or named, does not pay for ``key -> id`` entries
nothing asks for.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import WorkloadError
from repro.fifo_map import FifoMap
from repro.hashing.hash_family import _key_to_int, fold_keys
from repro.types import Key

#: Issues a process-unique token per dictionary.  Consistent grouping keys
#: its per-id owner cache on this token; ``id(dictionary)`` would be unsafe
#: because CPython reuses addresses of collected objects.
_TOKENS = itertools.count()

_GROW = 1024

#: A dictionary keeps candidate rows for at most this many hash identities
#: (FIFO-evicted): one per (seed, worker count) its ids were routed under,
#: so a run that rescales again and again holds the latest few.
_MAX_HASH_IDENTITIES = 4

#: Key types that share the plain forward map.  Dict lookups use ``==``,
#: which crosses types (``1 == True == 1.0``), while ``_key_to_int`` folds
#: those differently — so only exact types that never compare equal to a
#: value of another hashable type go in as themselves; anything else (bool,
#: float, tuples, custom objects) is keyed by ``(type, key)``.  That makes
#: ``id <-> key`` a bijection under the hash family's notion of identity.
_PLAIN_TYPES = frozenset({str, bytes, int})


def _forward_key(key: Key):
    return key if type(key) in _PLAIN_TYPES else (type(key), key)


def _forward_keys(keys: list[Key]) -> list:
    """:func:`_forward_key` of a chunk; the list itself when all are plain."""
    if set(map(type, keys)) <= _PLAIN_TYPES:
        return keys
    return [_forward_key(key) for key in keys]


def _object_array(items: list) -> np.ndarray:
    """``items`` as a 1-D object array (``np.array`` would unpack tuples)."""
    return np.fromiter(items, dtype=object, count=len(items))


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` plus each unique's first position.

    An integer chunk whose values span no more than its length — ``max -
    min < len`` — is deduplicated through a dense table over that span: one
    reversed scatter of the positions gives every value present its first
    position (a repeated index keeps the last assignment), the present
    cells in order are the sorted uniques, and their running count is the
    inverse — O(len) where the sort is O(len log len).  A wider span keeps
    the sort, with the same reversed scatter over ``inverse``.  Which one
    runs is read off the chunk; both return the same three arrays.
    """
    size = values.size
    if size and values.dtype.kind in "iu":
        low = values.min()
        span = int(values.max()) - int(low) + 1
        if span <= size:
            # The difference wraps in a signed dtype; read as unsigned of
            # the same width it is exact, being below ``span``.
            offsets = (values - low).view(f"u{values.itemsize}")
            first = np.full(span, size, dtype=np.int64)
            first[offsets[::-1]] = np.arange(size - 1, -1, -1)
            present = first < size
            first_positions = first[present]
            inverse = (np.cumsum(present) - 1)[offsets]
            return values[first_positions], inverse, first_positions
    uniques, inverse = np.unique(values, return_inverse=True)
    first_positions = np.empty(uniques.size, dtype=np.int64)
    order = np.arange(size - 1, -1, -1)
    first_positions[inverse[order]] = order
    return uniques, inverse, first_positions


class KeyDictionary:
    """Append-only interning dictionary: stable dense ids for stream keys."""

    __slots__ = ("_key_index", "_keys", "_folded", "_size", "token", "hash_rows")

    def __init__(self) -> None:
        # Read only through forward_map(), which catches it up.
        self._key_index: dict[Key, int] = {}
        self._keys = np.empty(_GROW, dtype=object)
        self._folded = np.empty(_GROW, dtype=np.uint64)
        self._size = 0
        self.token = next(_TOKENS)
        # Candidate rows per hash identity (seed, num_buckets), filled by
        # every HashFamily that routes these ids: the senders of a group
        # hash each key once, and the rows live as long as the ids do.
        self.hash_rows = FifoMap(_MAX_HASH_IDENTITIES)

    def __len__(self) -> int:
        """Number of ids issued so far, i.e. of distinct keys seen."""
        return self._size

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

    def _append(self, keys: np.ndarray, folded: np.ndarray) -> None:
        """Issue the next ``len(keys)`` ids to ``keys`` in one bulk store.

        ``keys`` is any 1-D array (an integer array is stored as Python
        ints), ``folded`` the keys' :func:`fold_keys`.
        """
        start = self._size
        stop = start + len(keys)
        self._grow(stop)
        self._keys[start:stop] = keys
        self._folded[start:stop] = folded
        self._size = stop

    def forward_map(self) -> dict:
        """The ``key -> id`` map (:func:`_forward_key` forms), caught up.

        An index over the key column: an array chunk appends ids, keys and
        folds and enters nothing, and this accessor enters
        ``keys[len(map):len(self)]`` in id order before handing the map
        out, so its contents and order are those element-wise
        :meth:`intern` leaves.  Every read of the map goes through here.

        Raises :class:`~repro.exceptions.WorkloadError` when the map grows
        by less than the ids it enters: a namer gave two draw values one
        key, which now holds two ids.  The entries are taken back out, so
        every later read raises again.
        """
        index = self._key_index
        indexed = len(index)
        if indexed < self._size:
            keys = self._keys[indexed : self._size].tolist()
            lookups = _forward_keys(keys)
            index.update(zip(lookups, range(indexed, self._size)))
            if len(index) < self._size:
                for kid, key, lookup in zip(itertools.count(indexed), keys, lookups):
                    if index[lookup] != kid:
                        break
                message = (
                    f"key {key!r} holds ids {kid} and {index[lookup]}: "
                    "a namer named two draw values alike"
                )
                while len(index) > indexed:
                    index.popitem()
                raise WorkloadError(message)
        return index

    def intern(self, key: Key) -> int:
        """Return the id of ``key``, issuing a fresh one on first sight."""
        lookup = _forward_key(key)
        forward = self.forward_map()
        kid = forward.get(lookup)
        if kid is None:
            # One key: two scalar stores beat the bulk append's array setup.
            kid = self._size
            self._grow(kid + 1)
            self._keys[kid] = key
            self._folded[kid] = _key_to_int(key)
            self._size = kid + 1
            forward[lookup] = kid
        return kid

    def intern_keys(self, keys: Iterable[Key]) -> np.ndarray:
        """Intern a sequence of keys, returning their ids as ``int64``.

        One dictionary probe per *message*, in stream order, exactly as
        element-wise :meth:`intern`.  What is per chunk is the store: the
        chunk's new keys go in with one array append and one vectorised
        :func:`~repro.hashing.hash_family.fold_keys`.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        lookups = _forward_keys(keys)
        forward = self.forward_map()
        base = self._size
        fresh: list = []  # forward keys of the chunk's new keys, in order

        def issue(lookup) -> int:
            kid = base + len(fresh)
            fresh.append(lookup)
            forward[lookup] = kid
            return kid

        get = forward.get
        out = [
            kid if (kid := get(lookup)) is not None else issue(lookup)
            for lookup in lookups
        ]
        if fresh:
            self._store(fresh, lookups is keys)
        return np.asarray(out, dtype=np.int64)

    def _store(self, fresh: list, plain: bool) -> None:
        """Append the keys behind ``fresh``, a chunk's new forward keys."""
        if not plain:
            # A wrapped forward key is the only tuple that can appear here:
            # tuple stream keys are themselves wrapped.
            fresh = [lookup[1] if type(lookup) is tuple else lookup for lookup in fresh]
        self._append(_object_array(fresh), fold_keys(fresh))

    def intern_int_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized interning of an integer key array.

        :meth:`intern_mapped_array` with the drawn values as the keys.
        Only an integer dtype is taken at its word (the keys are ``int``,
        their folds the values reinterpreted as ``uint64``); a ``bool`` or
        ``float`` array goes through the same type scan, ``(type, key)``
        forward keys and per-key fold as element-wise :meth:`intern`.
        """
        return self.intern_mapped_array(values, None)

    def intern_mapped_array(self, values, names) -> np.ndarray:
        """Intern an integer draw array whose keys are ``names(values)``.

        Generalises :meth:`intern_int_array` for workloads that draw integer
        indices but name their keys (e.g. ``head-0`` / ``key-42``):
        ``names`` maps a *list* of drawn values to the list of their keys,
        and is called once per chunk — on an empty dictionary with the new
        values in id order, otherwise with the chunk's distinct values,
        whose names serve both the lookups and the new keys.  It must name
        no two values alike; :meth:`forward_map` raises when it did.
        ``names=None`` means the values are the keys (plain integer key
        spaces).

        Python runs per chunk, C per key: the distinct values (from a dense
        table or a sort, see :func:`_distinct`) are looked up with one
        ``map`` over the forward map — none at all when the dictionary is
        empty, where every one is new — the new ones are put in
        first-appearance order by a numpy scatter, numbered ``len(self) +
        arange(k)`` and stored with one array append; the ids and the folds
        are those of element-wise :meth:`intern`.  The new keys enter the
        forward map on its next read (:meth:`forward_map`).
        """
        values = np.asarray(values)
        uniques, inverse, first_positions = _distinct(values)
        base = self._size
        # Integer values are their own (plain) keys: no type scan, no list.
        integers = names is None and uniques.dtype.kind in "iu"
        if base:
            keys = uniques.tolist()
            if names is not None:
                keys = names(keys)
            lookups = keys if integers else _forward_keys(keys)
            id_map = np.fromiter(
                map(self.forward_map().get, lookups, itertools.repeat(-1)),
                dtype=np.int64,
                count=len(lookups),
            )
            new = np.flatnonzero(id_map < 0)
        else:
            id_map = np.empty(uniques.size, dtype=np.int64)
            new = np.arange(uniques.size)
        if new.size:
            # The uniques are sorted; ids go by first appearance.  The new
            # values by first appearance, without a sort: mark their first
            # positions, read them back in stream order.
            firsts = np.zeros(values.size, dtype=bool)
            firsts[first_positions[new]] = True
            new = inverse[np.flatnonzero(firsts)]
            if integers:
                new_keys = uniques[new]
                folded = new_keys.astype(np.int64).view(np.uint64)
            else:
                if base:
                    fresh = _object_array(keys)[new].tolist()
                else:
                    fresh = uniques[new].tolist()
                    if names is not None:
                        fresh = names(fresh)
                new_keys = _object_array(fresh)
                folded = fold_keys(fresh)
            self._append(new_keys, folded)
            id_map[new] = np.arange(base, base + new.size)
        return id_map[inverse]

    def lookup(self, key: Key) -> int | None:
        """The id of ``key``, or ``None`` if it was never interned."""
        return self.forward_map().get(_forward_key(key))

    def key_of(self, kid: int) -> Key:
        """Decode one id back to its key."""
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
