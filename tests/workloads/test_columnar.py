"""Unit tests for the columnar stream layer: KeyDictionary + ColumnarBatch.

The columnar pipeline's whole correctness story rests on the dictionary:
ids must be dense, stable and chunking-independent, the stored folded keys
must equal ``_key_to_int`` of the originals, and a key must keep its one id
for the life of the dictionary.  These tests pin each of those properties in
isolation; the end-to-end byte-identity lives in
``tests/property/test_columnar_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.hashing.hash_family import _key_to_int
from repro.workloads.columnar import (
    ColumnarBatch,
    KeyDictionary,
    iter_batches_columnar,
)
from repro.workloads.drift import DriftingZipfWorkload
from repro.workloads.synthetic import CashtagLikeWorkload, WikipediaLikeWorkload
from repro.workloads.zipf_stream import ZipfWorkload


class TestKeyDictionary:
    def test_ids_are_dense_and_first_appearance_ordered(self):
        d = KeyDictionary()
        assert d.intern("b") == 0
        assert d.intern("a") == 1
        assert d.intern("b") == 0
        assert d.intern("c") == 2
        assert len(d) == 3
        assert [d.key_of(i) for i in range(3)] == ["b", "a", "c"]

    def test_folded_matches_key_to_int(self):
        d = KeyDictionary()
        keys = ["alpha", 42, "beta", -7, "alpha"]
        d.intern_keys(keys)
        expected = [_key_to_int(k) for k in ["alpha", 42, "beta", -7]]
        assert d.folded.tolist() == expected

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_id_assignment_independent_of_chunking(self, chunk):
        # Interning the same stream in any chunking yields the same ids —
        # the property that makes batch-size-independent numbering possible.
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 50, size=500).tolist()
        reference = KeyDictionary()
        expected = [reference.intern(k) for k in stream]
        chunked = KeyDictionary()
        got: list[int] = []
        for start in range(0, len(stream), chunk):
            got.extend(
                chunked.intern_keys(stream[start : start + chunk]).tolist()
            )
        assert got == expected
        assert len(chunked) == len(reference)

    @pytest.mark.parametrize("chunk", [1, 7, 97])
    def test_intern_int_array_matches_elementwise(self, chunk):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 40, size=400)
        reference = KeyDictionary()
        expected = [reference.intern(int(v)) for v in stream.tolist()]
        vectorized = KeyDictionary()
        got: list[int] = []
        for start in range(0, stream.size, chunk):
            got.extend(
                vectorized.intern_int_array(stream[start : start + chunk]).tolist()
            )
        assert got == expected

    def test_intern_mapped_array_calls_the_namer_once_per_chunk(self):
        d = KeyDictionary()
        calls: list[list[int]] = []

        def names(values: list[int]) -> list[str]:
            calls.append(values)
            return [f"key-{value}" for value in values]

        ids = d.intern_mapped_array(np.array([3, 1, 3, 2, 1]), names)
        # An empty dictionary names its new values once, in id order.
        assert calls == [[3, 1, 2]]
        assert [d.key_of(int(i)) for i in ids.tolist()] == [
            "key-3", "key-1", "key-3", "key-2", "key-1",
        ]
        # first-appearance order: 3 -> 0, 1 -> 1, 2 -> 2
        assert ids.tolist() == [0, 1, 0, 2, 1]
        # A non-empty one names the chunk's distinct values once, for the
        # lookups and the new keys alike.
        ids = d.intern_mapped_array(np.array([5, 2, 9, 5]), names)
        assert calls[1:] == [[2, 5, 9]]
        assert ids.tolist() == [3, 2, 4, 3]
        assert d.decode([3, 4]) == ["key-5", "key-9"]

    @pytest.mark.parametrize(
        "entry", ["intern", "intern_keys", "intern_int_array", "intern_mapped_array"]
    )
    def test_one_key_one_id_for_the_life_of_the_dictionary(self, entry):
        # No entry point ever forgets a key: however often it repeats, and
        # however many other keys arrive in between, it keeps its first id —
        # the id-keyed SpaceSaving table of the head/tail schemes counts on it.
        rng = np.random.default_rng(5)
        d = KeyDictionary()
        first_ids: dict = {}
        for _ in range(40):
            values = rng.integers(0, 3_000, size=int(rng.integers(1, 400)))
            if entry == "intern":
                ids = [d.intern(value) for value in values.tolist()]
            elif entry == "intern_keys":
                ids = d.intern_keys(values.tolist()).tolist()
            elif entry == "intern_int_array":
                ids = d.intern_int_array(values).tolist()
            else:
                ids = d.intern_mapped_array(values, _key_names).tolist()
            for value, kid in zip(values.tolist(), ids):
                assert first_ids.setdefault(value, kid) == kid
            assert len(d) == len(d.forward_map()) == len(first_ids)
        assert sorted(first_ids.values()) == list(range(len(d)))

    def test_decode_rejects_out_of_range(self):
        d = KeyDictionary()
        d.intern("x")
        with pytest.raises(WorkloadError):
            d.key_of(1)
        with pytest.raises(WorkloadError):
            d.decode([0, 1])


class TestArrayInterningEdges:
    """Behaviours of ``intern_int_array`` / ``intern_mapped_array`` that the
    per-key walk provided implicitly; the bulk issue has to provide them
    on purpose."""

    @pytest.mark.parametrize("known", [False, True], ids=["empty", "non-empty"])
    def test_non_injective_namer_raises_at_catch_up(self, known):
        # A namer must name each draw value apart: the key column takes one
        # id per new value, so two values named alike leave one key with two
        # ids, and the forward map's catch-up, which would keep only the
        # last, refuses it.
        def pair_names(values: list[int]) -> list[str]:
            return [f"pair-{value // 2}" for value in values]

        dictionary = KeyDictionary()
        if known:
            dictionary.intern("pair-1")
        base = len(dictionary)
        # 5 and 4 name pair-2, 1 and 0 name pair-0, 2 names pair-1.
        ids = dictionary.intern_mapped_array(np.array([5, 4, 1, 0, 5, 2]), pair_names)
        assert ids.tolist()[:4] == [base, base + 1, base + 2, base + 3]
        with pytest.raises(WorkloadError, match=r"'pair-2' holds ids %d and %d" % (base, base + 1)):
            dictionary.forward_map()
        # Nothing was half entered: every later read raises again.
        with pytest.raises(WorkloadError, match="named two draw values alike"):
            dictionary.lookup("pair-0")
        with pytest.raises(WorkloadError):
            dictionary.intern("pair-9")

    def test_namer_may_name_a_known_key_from_several_values(self):
        # Values named alike are no error when the key is already known:
        # they look it up and share its id; only new keys must be apart.
        def pair_names(values: list[int]) -> list[str]:
            return [f"pair-{value // 2}" for value in values]

        dictionary = KeyDictionary()
        dictionary.intern_keys(["pair-2", "pair-0", "pair-1"])
        ids = dictionary.intern_mapped_array(np.array([3, 7, 0, 5, 1, 4]), pair_names)
        assert ids.tolist() == [2, 3, 1, 0, 1, 0]
        assert list(dictionary.forward_map().items()) == [
            ("pair-2", 0), ("pair-0", 1), ("pair-1", 2), ("pair-3", 3),
        ]
        assert dictionary.folded.tolist() == [
            _key_to_int(key) for key in ("pair-2", "pair-0", "pair-1", "pair-3")
        ]

    @pytest.mark.parametrize(
        "values",
        [
            np.array([True, False, True, True]),
            np.array([1.5, -1.0, 1.5, 0.0, 2.0**70]),
            np.array([2**63 + 5, 7, 2**64 - 1, 2**63 + 5], dtype=np.uint64),
            np.array([-1, 3, -(2**63), 3], dtype=np.int64),
            np.array([200, 7, 200], dtype=np.uint8),
        ],
        ids=["bool", "float", "uint64-high", "int64-negative", "uint8"],
    )
    def test_intern_int_array_of_any_dtype_is_elementwise_intern(self, values):
        # Only integer dtypes may skip the type scan: bools and floats are
        # wrapped as (type, key) and fold as _key_to_int folds them.
        reference = KeyDictionary()
        expected = [reference.intern(value) for value in values.tolist()]
        dictionary = KeyDictionary()
        assert dictionary.intern_int_array(values).tolist() == expected
        assert list(dictionary.forward_map().items()) == list(reference.forward_map().items())
        keys = dictionary.decode(np.arange(len(dictionary)))
        assert [(type(key), key) for key in keys] == [
            (type(key), key) for key in reference.decode(np.arange(len(reference)))
        ]
        assert dictionary.folded.tolist() == [_key_to_int(key) for key in keys]
        assert dictionary.folded.tolist() == reference.folded.tolist()
        # ... and a second sight of the same array issues nothing.
        assert dictionary.intern_int_array(values).tolist() == expected
        assert len(dictionary) == len(reference)


def _unique_reference(values: np.ndarray):
    """What interning ``values`` into a fresh dictionary must give, from
    ``np.unique``: ids by first appearance, the keys in that order."""
    uniques, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.empty(uniques.size, dtype=np.int64)
    ids[order] = np.arange(uniques.size)
    return ids[inverse], uniques[order].tolist()


def _spanning(dtype, low: int, size: int, span: int, seed: int) -> np.ndarray:
    """``size`` values of ``dtype`` from ``low`` up, ``low`` and ``low + span
    - 1`` both present (so ``max - min + 1 == span``), in a shuffled order."""
    rng = np.random.default_rng(seed)
    values = [low, low + span - 1] + [low + offset for offset in rng.integers(0, span, size - 2).tolist()]
    return np.array([values[i] for i in rng.permutation(size).tolist()], dtype=dtype)


class TestDenseDedupe:
    """A chunk whose values span no more than its length is deduplicated
    through a dense table instead of ``np.unique``'s sort; the ids, the
    forward map's order and the folds must not show which one ran."""

    EXTREMES = {
        np.int8: (-128, 127),
        np.int32: (-(2**31), 2**31 - 1),
        np.int64: (-(2**63), 2**63 - 1),
        np.uint64: (0, 2**64 - 1),
    }

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["span-len-1", "span-len", "span-len+1"])
    @pytest.mark.parametrize("end", ["low", "around-zero", "high"])
    @pytest.mark.parametrize("size", [40, 200])  # 200: max - min overflows an int8
    @pytest.mark.parametrize("dtype", list(EXTREMES), ids=lambda d: d.__name__)
    def test_ids_order_and_folds_are_the_unique_reference(self, dtype, size, end, extra):
        span = size + extra
        lowest, highest = self.EXTREMES[dtype]
        low = {"low": lowest, "around-zero": max(lowest, -(span // 2)), "high": highest - span + 1}[end]
        values = _spanning(dtype, low, size, span, seed=size + extra)
        assert int(values.max()) - int(values.min()) + 1 == span
        expected_ids, expected_keys = _unique_reference(values)
        dictionary = KeyDictionary()
        ids = dictionary.intern_int_array(values)
        assert ids.dtype == np.int64
        assert ids.tolist() == expected_ids.tolist()
        assert list(dictionary.forward_map()) == expected_keys
        assert list(dictionary.forward_map().values()) == list(range(len(expected_keys)))
        assert dictionary.folded.tolist() == [_key_to_int(key) for key in expected_keys]
        # The same keys again: the ids come back and nothing is issued.
        more = np.concatenate([values[::2], values[:1]])
        assert dictionary.intern_int_array(more).tolist() == expected_ids[
            np.r_[0:size:2, 0]
        ].tolist()
        assert len(dictionary) == len(expected_keys)

    @pytest.mark.parametrize("known", [False, True], ids=["empty", "non-empty"])
    def test_mapped_names_come_from_either_path_alike(self, known):
        for values in (np.array([4, 2, 4, 3, 2]), np.array([9, 2, 9, 3, 2])):
            expected_ids, expected_values = _unique_reference(values)
            dictionary = KeyDictionary()
            if known:
                dictionary.intern("other")
            ids = dictionary.intern_mapped_array(values, _key_names)
            assert ids.tolist() == (expected_ids + known).tolist()
            assert list(dictionary.forward_map())[known:] == _key_names(expected_values)

    @pytest.mark.parametrize("dtype", list(EXTREMES), ids=lambda d: d.__name__)
    def test_empty_chunk(self, dtype):
        dictionary = KeyDictionary()
        ids = dictionary.intern_int_array(np.array([], dtype=dtype))
        assert ids.dtype == np.int64 and ids.size == 0
        assert len(dictionary) == 0


def _key_names(values: list[int]) -> list[str]:
    return [f"key-{value}" for value in values]


def _pair_name(value: int) -> int:
    # Names two draw values alike, and names them as integers, so a named
    # chunk's keys meet an integer chunk's in the map.  Only known keys may
    # be named twice in a chunk: new keys must be apart.
    return value // 2


def _pair_names(values: list[int]) -> list[int]:
    return [_pair_name(value) for value in values]


#: One step applied to a dictionary: ``(entry, argument)``.  Each entry is
#: replayed on a reference dictionary as element-wise ``intern`` (``lookup``
#: as ``lookup``), which enters the forward map key by key.
LAZY_MAP_SEQUENCES = {
    "overlapping-int-chunks": [
        ("ints", np.array([5, 3, 5, 9, 3], dtype=np.int64)),
        ("ints", np.array([9, 11, 3, 12, 11, 5], dtype=np.int64)),
    ],
    "named-after-int": [
        ("ints", np.array([4, 1, 4, 6], dtype=np.int64)),
        ("named", np.array([8, 9, 2, 13, 3, 8])),
        ("named", np.array([13, 20, 12])),
    ],
    "named-first": [
        ("named", np.array([6, 0, 6, 12, 40])),
        ("ints", np.array([3, 0, 9, 6], dtype=np.int64)),
        ("lookup", 6),
        ("named", np.array([14, 7, 1, 0, 14])),
        ("named", np.array([2, 40, 41, 60], dtype=np.int8)),
    ],
    "intern-known-then-new": [
        ("ints", np.array([7, 2, 7], dtype=np.int64)),
        ("intern", 2),
        ("intern", 40),
        ("ints", np.array([40, 41, 7], dtype=np.int64)),
    ],
    "intern-keys": [
        ("ints", np.array([3, 1, 3], dtype=np.int64)),
        ("intern_keys", [1, "1", 8, 3, True, 8]),
        ("ints", np.array([8, 9, 1], dtype=np.int64)),
    ],
    "lookup-hit-and-miss": [
        ("ints", np.array([10, 20, 10], dtype=np.int64)),
        ("lookup", 20),
        ("lookup", 30),
        ("ints", np.array([30, 20], dtype=np.int64)),
        ("lookup", 30),
    ],
    "empty-chunks": [
        ("ints", np.array([], dtype=np.int64)),
        ("ints", np.array([2, 2, 1], dtype=np.int64)),
        ("ints", np.array([], dtype=np.uint64)),
        ("ints", np.array([1, 0], dtype=np.int64)),
    ],
    "integer-extremes": [
        ("ints", np.array([127, -128, 0, -1, 127], dtype=np.int8)),
        ("ints", np.array([-(2**63), 2**63 - 1, -1, 0], dtype=np.int64)),
        ("ints", np.array([2**64 - 1, 2**63, 127, 2**64 - 1], dtype=np.uint64)),
        ("lookup", 2**64 - 1),
        ("lookup", -(2**63)),
    ],
    # bool and float keys are wrapped as (type, key) in the map: 1, True and
    # 1.0 compare equal, so a catch-up that skipped the wrapping would
    # merge them.
    "bool-and-float-keys-caught-up": [
        ("ints", np.array([True, False, True])),
        ("ints", np.array([1.0, 0.5, 0.0])),
        ("ints", np.array([1, 0, 2, 1], dtype=np.int64)),
        ("lookup", True),
        ("lookup", 1.0),
        ("intern", 0.5),
        ("intern", 1),
    ],
    "bool-and-float-keys-interned": [
        ("intern", True),
        ("intern", 1.0),
        ("ints", np.array([1, 0, 3], dtype=np.int64)),
        ("ints", np.array([1.0, 1.5])),
        ("ints", np.array([3, 1, 4], dtype=np.int64)),
    ],
}


def _apply(dictionary: KeyDictionary, step):
    entry, argument = step
    if entry == "ints":
        return dictionary.intern_int_array(argument).tolist()
    if entry == "named":
        return dictionary.intern_mapped_array(argument, _pair_names).tolist()
    if entry == "intern":
        return [dictionary.intern(argument)]
    if entry == "intern_keys":
        return dictionary.intern_keys(argument).tolist()
    return [dictionary.lookup(argument)]


def _apply_elementwise(reference: KeyDictionary, step):
    entry, argument = step
    if entry == "ints":
        return [reference.intern(value) for value in argument.tolist()]
    if entry == "named":
        return [reference.intern(_pair_name(value)) for value in argument.tolist()]
    if entry == "intern_keys":
        return [reference.intern(key) for key in argument]
    if entry == "lookup":
        return [reference.lookup(argument)]
    return [reference.intern(argument)]


def _typed(keys: list) -> list:
    return [(type(key), key) for key in keys]


class TestLazyForwardMap:
    """An array chunk, named or not, appends ids, keys and folds and leaves
    the forward map to be caught up on its next read; nothing a later step or a
    reader sees may show that the map was built late.

    Every prefix of each sequence is replayed on a fresh dictionary and only
    then is the map read, so a step that reads a map still behind the key
    column (and would issue a known key a second id) is caught, not masked
    by an earlier check's catch-up."""

    @pytest.mark.parametrize("name", list(LAZY_MAP_SEQUENCES))
    def test_every_prefix_is_elementwise_intern(self, name):
        sequence = LAZY_MAP_SEQUENCES[name]
        for stop in range(1, len(sequence) + 1):
            dictionary, reference = KeyDictionary(), KeyDictionary()
            for step in sequence[:stop]:
                assert _apply(dictionary, step) == _apply_elementwise(reference, step), (
                    name, stop, step[0],
                )
            assert len(dictionary) == len(reference)
            assert dictionary.folded.tolist() == reference.folded.tolist()
            every_id = np.arange(len(reference))
            assert _typed(dictionary.decode(every_id)) == _typed(reference.decode(every_id))
            assert list(dictionary.forward_map().items()) == list(
                reference.forward_map().items()
            )


#: Injective namers whose keys are text, integers (meeting an integer
#: chunk's keys in the map) and tuples (wrapped as ``(type, key)``).
NAMERS = {
    "text": _key_names,
    "shifted-int": lambda values: [3 * value + 1 for value in values],
    "tuple": lambda values: [(value, "t") for value in values],
}

#: A chunk with repeats: narrow values often span no more than the chunk
#: (the dense table), stretched ones always more (the sort).
CHUNKS = st.builds(
    lambda values, stretch, shift: np.array(values, dtype=np.int64) * stretch + shift,
    st.lists(st.integers(0, 25), max_size=40),
    st.sampled_from([1, 997]),
    st.sampled_from([0, -13]),
)

STEPS = st.one_of(
    st.tuples(st.just("ints"), CHUNKS),
    st.tuples(st.sampled_from(sorted(NAMERS)), CHUNKS),
    st.tuples(st.just("read"), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEPS, min_size=1, max_size=8))
def test_mixed_chunks_and_reads_are_elementwise_intern(steps):
    """Integer and named chunks in any order, with forward-map reads between
    them: the ids, the key column, the folds and the map in order are those
    of element-wise ``intern``."""
    dictionary, reference = KeyDictionary(), KeyDictionary()
    for entry, values in steps:
        if entry == "read":
            assert list(dictionary.forward_map().items()) == list(
                reference.forward_map().items()
            )
            continue
        if entry == "ints":
            ids, keys = dictionary.intern_int_array(values), values.tolist()
        else:
            names = NAMERS[entry]
            ids, keys = dictionary.intern_mapped_array(values, names), names(values.tolist())
        assert ids.dtype == np.int64
        assert ids.tolist() == [reference.intern(key) for key in keys]
    assert len(dictionary) == len(reference)
    every_id = np.arange(len(reference))
    assert _typed(dictionary.decode(every_id)) == _typed(reference.decode(every_id))
    assert dictionary.folded.tolist() == reference.folded.tolist()
    assert list(dictionary.forward_map().items()) == list(reference.forward_map().items())


class TestColumnarBatch:
    def test_keys_indices_and_views(self):
        d = KeyDictionary()
        ids = d.intern_keys(["a", "b", "a", "c", "b"])
        batch = ColumnarBatch(ids, d, base_index=10)
        assert len(batch) == 5
        assert batch.keys() == ["a", "b", "a", "c", "b"]
        assert batch.indices().tolist() == [10, 11, 12, 13, 14]

        part = batch.slice(1, 4)
        assert part.keys() == ["b", "a", "c"]
        assert part.base_index == 11

        strided = batch.strided(1, 2)
        assert strided.keys() == ["b", "c"]
        assert strided.base_index == 11
        # Views share the parent array (zero-copy contract).
        assert strided.ids.base is batch.ids or strided.ids.base is ids


class TestWorkloadColumnarIterators:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ZipfWorkload(1.4, 500, 5_000, seed=9),
            lambda: DriftingZipfWorkload(1.4, 400, 5_000, num_epochs=4, seed=9),
            lambda: WikipediaLikeWorkload(5_000, seed=9),
            lambda: CashtagLikeWorkload(5_000, seed=9),
        ],
        ids=["zipf", "drift", "wikipedia", "cashtag"],
    )
    @pytest.mark.parametrize("batch_size", [1, 997, 8192])
    def test_columnar_stream_decodes_to_scalar_stream(self, factory, batch_size):
        expected = list(factory().keys())
        decoded: list = []
        index = 0
        for batch in factory().iter_batches_columnar(batch_size):
            assert batch.base_index == index
            decoded.extend(batch.keys())
            index += len(batch)
        assert decoded == expected

    def test_id_numbering_is_batch_size_independent(self):
        def ids_at(batch_size: int) -> list[int]:
            out: list[int] = []
            for batch in ZipfWorkload(1.4, 300, 4_000, seed=1).iter_batches_columnar(
                batch_size
            ):
                out.extend(batch.ids.tolist())
            return out

        assert ids_at(1) == ids_at(613) == ids_at(8192)

    def test_generic_chunker_matches_native(self):
        native: list[int] = []
        for batch in ZipfWorkload(1.4, 300, 3_000, seed=2).iter_batches_columnar(256):
            native.extend(batch.ids.tolist())
        generic: list[int] = []
        for batch in iter_batches_columnar(
            ZipfWorkload(1.4, 300, 3_000, seed=2).keys(), 256
        ):
            generic.extend(batch.ids.tolist())
        assert native == generic

    def test_caller_supplied_dictionary_is_shared(self):
        d = KeyDictionary()
        for batch in WikipediaLikeWorkload(2_000, seed=3).iter_batches_columnar(
            512, dictionary=d
        ):
            assert batch.dictionary is d
        assert len(d) > 0
