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

    def test_intern_mapped_array_calls_key_fn_once_per_distinct_value(self):
        d = KeyDictionary()
        calls: list[int] = []

        def name(value: int) -> str:
            calls.append(value)
            return f"key-{value}"

        ids = d.intern_mapped_array(np.array([3, 1, 3, 2, 1]), name)
        assert sorted(set(calls)) == [1, 2, 3]
        assert [d.key_of(int(i)) for i in ids.tolist()] == [
            "key-3", "key-1", "key-3", "key-2", "key-1",
        ]
        # first-appearance order: 3 -> 0, 1 -> 1, 2 -> 2
        assert ids.tolist() == [0, 1, 0, 2, 1]

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
                ids = d.intern_mapped_array(values, "key-{}".format).tolist()
            for value, kid in zip(values.tolist(), ids):
                assert first_ids.setdefault(value, kid) == kid
            assert len(d) == len(d._forward) == len(first_ids)
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

    def test_non_injective_key_fn_issues_one_id_per_key(self):
        dictionary = KeyDictionary()

        def pair_name(value: int) -> str:
            return f"pair-{value // 2}"

        # 5 and 4 name pair-2, 1 and 0 name pair-0, 2 names pair-1.
        ids = dictionary.intern_mapped_array(np.array([5, 4, 1, 0, 5, 2]), pair_name)
        assert ids.tolist() == [0, 0, 1, 1, 0, 2]
        assert len(dictionary) == 3
        assert list(dictionary._forward.items()) == [
            ("pair-2", 0), ("pair-0", 1), ("pair-1", 2),
        ]
        assert dictionary.decode([0, 1, 2]) == ["pair-2", "pair-0", "pair-1"]
        assert dictionary.folded.tolist() == [
            _key_to_int(key) for key in ("pair-2", "pair-0", "pair-1")
        ]
        # Known and new aliases in one chunk: 3 joins pair-1, 7 and 6 are new.
        ids = dictionary.intern_mapped_array(np.array([3, 7, 0, 6]), pair_name)
        assert ids.tolist() == [2, 3, 1, 3]
        assert len(dictionary) == 4

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
        assert list(dictionary._forward.items()) == list(reference._forward.items())
        keys = dictionary.decode(np.arange(len(dictionary)))
        assert [(type(key), key) for key in keys] == [
            (type(key), key) for key in reference.decode(np.arange(len(reference)))
        ]
        assert dictionary.folded.tolist() == [_key_to_int(key) for key in keys]
        assert dictionary.folded.tolist() == reference.folded.tolist()
        # ... and a second sight of the same array issues nothing.
        assert dictionary.intern_int_array(values).tolist() == expected
        assert len(dictionary) == len(reference)


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
