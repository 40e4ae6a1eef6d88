"""Unit tests for the columnar stream layer: KeyDictionary + ColumnarBatch.

The columnar pipeline's whole correctness story rests on the dictionary:
ids must be dense, stable and chunking-independent, the stored folded keys
must equal ``_key_to_int`` of the originals, and bounded mode must only
forget the forward direction.  These tests pin each of those properties in
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

    def test_bounded_mode_evicts_forward_entries_only(self):
        d = KeyDictionary(max_keys=3)
        for key in ("a", "b", "c", "d"):
            d.intern(key)
        # "a" (the oldest forward entry) was evicted when "d" arrived.
        assert d.lookup("a") is None
        assert d.lookup("b") == 1
        # Reverse decoding survives eviction: id 0 still names "a".
        assert d.key_of(0) == "a"
        assert d.decode([0, 3]) == ["a", "d"]

    def test_bounded_reintern_roundtrip_issues_fresh_id(self):
        d = KeyDictionary(max_keys=3)
        for key in ("a", "b", "c", "d"):  # evicts "a"
            d.intern(key)
        fresh = d.intern("a")  # re-appears: new id, old one stays decodable
        assert fresh == 4
        assert d.key_of(4) == "a" == d.key_of(0)
        assert len(d) == 5
        # Both ids fold to the same hash input, so routing is unaffected.
        assert d.folded[0] == d.folded[4] == np.uint64(_key_to_int("a"))

    def test_max_keys_validation(self):
        with pytest.raises(WorkloadError):
            KeyDictionary(max_keys=0)

    def test_decode_rejects_out_of_range(self):
        d = KeyDictionary()
        d.intern("x")
        with pytest.raises(WorkloadError):
            d.key_of(1)
        with pytest.raises(WorkloadError):
            d.decode([0, 1])


class _BoundedModel:
    """What a bounded dictionary does with one array chunk, spelled out.

    The chunk's *distinct* keys are visited in first-appearance order: a
    hit is its id; a miss takes the next id, enters the forward map and
    evicts the oldest entry if the map is over its bound — possibly a key
    the chunk has yet to reach, which then misses and gets a fresh id.
    """

    def __init__(self, max_keys: int) -> None:
        self.forward: dict = {}
        self.issued = 0
        self.max_keys = max_keys

    def intern_chunk(self, keys: list) -> list[int]:
        ids = {}
        for key in dict.fromkeys(keys):
            kid = self.forward.get(key)
            if kid is None:
                kid = self.issued
                self.issued += 1
                self.forward[key] = kid
                if len(self.forward) > self.max_keys:
                    del self.forward[next(iter(self.forward))]
            ids[key] = kid
        return [ids[key] for key in keys]


class TestArrayInterningEdges:
    """Behaviours of ``intern_int_array`` / ``intern_mapped_array`` that the
    per-key walk provided implicitly; the bulk issue has to provide them
    on purpose."""

    @pytest.mark.parametrize("key_fn", [None, "key-{}".format], ids=["ints", "named"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounded_dictionary_walks_distinct_keys_in_stream_order(self, key_fn, seed):
        rng = np.random.default_rng(seed)
        for _ in range(130):
            max_keys = int(rng.integers(1, 40))
            dictionary = KeyDictionary(max_keys=max_keys)
            model = _BoundedModel(max_keys)
            for _ in range(int(rng.integers(1, 7))):
                values = rng.integers(0, 50, size=int(rng.integers(0, 60)))
                keys = values.tolist()
                if key_fn is not None:
                    keys = [key_fn(value) for value in keys]
                ids = dictionary.intern_mapped_array(values, key_fn)
                assert ids.dtype == np.int64
                assert ids.tolist() == model.intern_chunk(keys)
                assert len(dictionary) == model.issued
                assert list(dictionary._forward.items()) == list(model.forward.items())
                assert len(dictionary._forward) <= max_keys
                assert dictionary.decode(ids) == keys

    def test_bounded_chunk_can_evict_a_key_before_its_turn(self):
        # The case the model exists for: "a" is known when the chunk starts,
        # but "b" and "c" arrive first and push it out — it is re-issued.
        dictionary = KeyDictionary(max_keys=2)
        names = {0: "a", 1: "b", 2: "c"}
        assert dictionary.intern_mapped_array(np.array([0]), names.get).tolist() == [0]
        ids = dictionary.intern_mapped_array(np.array([1, 2, 0, 1]), names.get)
        assert ids.tolist() == [1, 2, 3, 1]
        assert dictionary.decode([0, 3]) == ["a", "a"]
        # A chunk of known keys only walks nothing and evicts nothing.
        before = list(dictionary._forward.items())
        assert dictionary.intern_mapped_array(np.array([0, 2, 0]), names.get).tolist() == [3, 2, 3]
        assert list(dictionary._forward.items()) == before == [("c", 2), ("a", 3)]

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
