"""The vectorized hashing layer must be bit-exact with the scalar path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.hashing import hash_family
from repro.hashing.hash_family import (
    _FOLD_MIN_KEYS,
    HashFamily,
    _key_to_int,
    fold_keys,
    stable_hash,
)
from repro.hashing.vectorized import splitmix64_array
from repro.workloads.columnar import KeyDictionary


def _id_rows(family: HashFamily, keys, d=None) -> np.ndarray:
    """Batched hashing as the routing kernels do it: intern, then gather."""
    dictionary = KeyDictionary()
    return family.id_candidate_rows(dictionary.intern_keys(keys), dictionary, d)


class TestSplitmixArray:
    def test_matches_scalar_mixer(self):
        # stable_hash(key, 0) == splitmix64(key ^ splitmix64(0)) for integer
        # keys below 2**64, so chaining the array mixer twice must reproduce
        # the scalar path bit for bit (including wrap-around cases).
        values = [0, 1, 2**63, 2**64 - 1, 0xDEADBEEF, 0x9E3779B97F4A7C15]
        seed_mix = int(splitmix64_array(np.array([0], dtype=np.uint64))[0])
        remixed = splitmix64_array(
            np.array([v ^ seed_mix for v in values], dtype=np.uint64)
        )
        assert [stable_hash(v, 0) for v in values] == remixed.tolist()


class TestCandidatesBatch:
    def test_matches_scalar_candidates(self):
        family = HashFamily(num_functions=8, num_buckets=37, seed=11)
        keys = ["apple", "banana", b"raw-bytes", 42, -17, 2**70 + 5, "apple", ""]
        batch = _id_rows(family, keys, 8)
        assert batch.shape == (len(keys), 8)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == family.candidates(key, 8)
        # The dictionary-free key-list form agrees, column by column.
        columns = family.candidates_batch_columns(keys, 8)
        assert np.array_equal(np.array(columns).T, batch)

    def test_partial_d_is_a_prefix(self):
        family = HashFamily(num_functions=6, num_buckets=10, seed=3)
        keys = [f"k{i}" for i in range(50)]
        full = _id_rows(family, keys, 6)
        two = _id_rows(family, keys, 2)
        assert np.array_equal(full[:, :2], two)

    def test_rejects_bad_d(self):
        family = HashFamily(num_functions=2, num_buckets=10, seed=0)
        with pytest.raises(ConfigurationError):
            _id_rows(family, ["x"], 3)
        with pytest.raises(ConfigurationError):
            _id_rows(family, ["x"], 0)

    def test_empty_batch(self):
        family = HashFamily(num_functions=2, num_buckets=10, seed=0)
        assert _id_rows(family, [], 2).shape == (0, 2)


class TestInterningCache:
    def test_repeat_lookups_hit_the_cache(self):
        family = HashFamily(num_functions=4, num_buckets=20, seed=9)
        first = family.candidates("hot-key", 4)
        assert family.candidates("hot-key", 4) is first  # cached tuple
        assert family.candidates("hot-key", 2) == first[:2]

    def test_cache_eviction_keeps_answers_correct(self, monkeypatch):
        reference = HashFamily(num_functions=2, num_buckets=16, seed=1)
        monkeypatch.setattr(hash_family, "_CANDIDATE_CACHE_LIMIT", 8)
        family = HashFamily(num_functions=2, num_buckets=16, seed=1)
        keys = [f"key-{i % 20}" for i in range(200)]
        for key in keys:
            assert family.candidates(key, 2) == reference.candidates(key, 2)
        # FIFO bound is respected: the last eight distinct keys are held.
        assert list(family._candidate_cache) == [f"key-{i}" for i in range(12, 20)]
        assert len(reference._candidate_cache) == 20

    def test_bool_keys_do_not_alias_int_keys(self):
        family = HashFamily(num_functions=2, num_buckets=1000, seed=5)
        # Prime the caches with the bools first, then the ints.
        bool_candidates = (family.candidates(True, 2), family.candidates(False, 2))
        int_candidates = (family.candidates(1, 2), family.candidates(0, 2))
        assert bool_candidates != int_candidates
        # ... and the dictionary keeps them apart too: four distinct ids,
        # each gathering its own key's candidates.
        dictionary = KeyDictionary()
        ids = dictionary.intern_keys([True, 1, False, 0])
        assert ids.tolist() == [0, 1, 2, 3]
        batch = family.id_candidate_rows(ids, dictionary, 2)
        assert tuple(batch[0].tolist()) == bool_candidates[0]
        assert tuple(batch[1].tolist()) == int_candidates[0]
        assert tuple(batch[2].tolist()) == bool_candidates[1]
        assert tuple(batch[3].tolist()) == int_candidates[1]

    def test_cross_type_equal_keys_do_not_alias_through_the_cache(self):
        # -1 == -1.0 as dict keys, but the folds differ; a cached int entry
        # must never answer for the float (and vice versa), and cache state
        # must not change any answer.
        warm = HashFamily(num_functions=2, num_buckets=11, seed=42)
        cold = HashFamily(num_functions=2, num_buckets=11, seed=42)
        warm.candidates(-1, 2)  # prime the cache with the int
        assert warm.candidates(-1.0, 2) == cold.candidates(-1.0, 2)
        # The dictionary must not alias them either: interning the int
        # first may not hand its id (and folded key) to the float.
        dictionary = KeyDictionary()
        ids = dictionary.intern_keys([-1, -1.0, 1, True, 1.0])
        assert len(set(ids.tolist())) == 5
        rows = warm.id_candidate_rows(ids, dictionary, 2).tolist()
        for row, key in zip(rows, [-1, -1.0, 1, True, 1.0]):
            assert tuple(row) == cold.candidates(key, 2)


class TestChunkedKeyFold:
    def test_distinct_for_prefix_pairs(self):
        assert _key_to_int(b"a") != _key_to_int(b"a\x00")
        assert _key_to_int("abcdefgh") != _key_to_int("abcdefghi")
        assert _key_to_int("") != _key_to_int("\x00")

    def test_short_strings_stay_distinct_from_raw_integers(self):
        # Without the offset basis, '' and 0 (and '\x01' and 1) would fold
        # to the same 64-bit word and collide under every hash function.
        assert _key_to_int("") != _key_to_int(0)
        assert _key_to_int(b"") != _key_to_int(0)
        assert _key_to_int("\x01") != _key_to_int(1)

    def test_long_keys_are_deterministic_and_spread(self):
        keys = [f"prefix-{i}-" + "x" * 100 for i in range(500)]
        values = {_key_to_int(key) for key in keys}
        assert len(values) == 500  # no collisions among close long keys
        # str keys fold through their utf-8 bytes
        assert _key_to_int("abcdefghij") == _key_to_int(b"abcdefghij")

    def test_int_and_str_keys_stay_distinct(self):
        assert stable_hash(42, 0) != stable_hash("42", 0)
        assert stable_hash(True, 0) != stable_hash(1, 0)


#: Text that stresses the byte view: NUL runs (numpy's padding byte), an
#: astral code point (4 UTF-8 bytes), a combining mark and a 2-byte letter.
_TEXT = st.text(
    alphabet=st.sampled_from(["\x00", "a", "z", "\u00e9", "\u0301", "\U0001d11e"]),
    max_size=24,
)
#: Every length across the 8-byte chunk edges and the 64-byte array limit.
_EDGE_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70)
_BYTES = st.one_of(
    st.binary(max_size=70),
    st.builds(
        lambda length, fill: bytes([fill]) * length,
        st.sampled_from(_EDGE_LENGTHS),
        st.sampled_from([0, 1, 255]),
    ),
)
_INTS = st.one_of(
    st.integers(min_value=-(2**63) - 2, max_value=-(2**63) + 2),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
    st.integers(min_value=2**64 - 2, max_value=2**64 + 2**20),
    st.integers(min_value=-1000, max_value=1000),
)
_ODD = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=3)),
)


def _tiled(keys):
    """``keys`` repeated until a text list is long enough to fold as columns."""
    return keys * -(-_FOLD_MIN_KEYS // max(1, len(keys)))


def _assert_fold_is_scalar_fold(keys) -> None:
    # As given (a short text list folds per key) and tiled past the size
    # where the array form takes over: same keys, same widths, both routes.
    for sample in (keys, _tiled(keys)):
        folded = fold_keys(sample)
        assert folded.dtype == np.uint64
        assert folded.shape == (len(sample),)
        assert folded.tolist() == [_key_to_int(key) for key in sample]


class TestFoldKeys:
    """The vector fold is the scalar fold, element for element."""

    @given(st.lists(_TEXT, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_str_lists(self, keys):
        _assert_fold_is_scalar_fold(keys)

    @given(st.lists(_BYTES, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_bytes_lists(self, keys):
        _assert_fold_is_scalar_fold(keys)

    @given(st.lists(_INTS, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_int_lists(self, keys):
        _assert_fold_is_scalar_fold(keys)

    @given(st.lists(st.one_of(_TEXT, _BYTES, _INTS, _ODD), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_mixed_lists(self, keys):
        _assert_fold_is_scalar_fold(keys)

    def test_every_length_across_the_chunk_edges(self):
        # One list per width, and all widths in one list (the short rows
        # then sit zero-padded beside the long ones, under the mask).
        for fill in (b"\x00", b"\x01", b"\xff"):
            by_length = [fill * length for length in range(71)]
            _assert_fold_is_scalar_fold(by_length)
            _assert_fold_is_scalar_fold(by_length[:65])
            for key in by_length:
                _assert_fold_is_scalar_fold([key])
                _assert_fold_is_scalar_fold([key.decode("latin-1")])

    def test_prefix_and_type_distinctness_survive_the_vector_form(self):
        # TestChunkedKeyFold's examples, folded as lists.
        for keys in (
            [b"a", b"a\x00"],
            ["abcdefgh", "abcdefghi"],
            ["", "\x00"],
            ["a", "a\x00", "a\x00\x00"],
            [b"\x00" * 8, b"\x00" * 9, b"\x00" * 16, b"\x00" * 17],
        ):
            _assert_fold_is_scalar_fold(keys)
            assert len(set(fold_keys(_tiled(keys)).tolist())) == len(keys)
        assert fold_keys(_tiled([""]))[0] != fold_keys([0])[0]
        assert fold_keys(_tiled(["\x01"]))[0] != fold_keys([1])[0]
        assert fold_keys(_tiled(["42"]))[0] != fold_keys([42])[0]
        assert fold_keys([True])[0] != fold_keys([1])[0]
        assert fold_keys(_tiled(["abcdefghij"]))[0] == fold_keys(_tiled([b"abcdefghij"]))[0]

    def test_the_array_form_starts_at_sixteen_keys(self):
        # Below it the fixed cost of a dozen numpy calls exceeds the scalar
        # fold of the whole list; the switch is on the input's size and both
        # sides of it agree (the relation, not the timing, is pinned here).
        assert _FOLD_MIN_KEYS == 16
        keys = [f"page-{i}-" + "x" * (i % 40) for i in range(40)]
        for size in (1, 15, 16, 17, 40):
            assert fold_keys(keys[:size]).tolist() == [_key_to_int(k) for k in keys[:size]]

    def test_subclasses_and_tuples_of_keys_take_the_per_key_route(self):
        class Name(str):
            pass

        _assert_fold_is_scalar_fold([Name("abc"), "abc"])
        _assert_fold_is_scalar_fold(("abc", "defghijklm"))  # a tuple of keys
        _assert_fold_is_scalar_fold([])

    @given(st.one_of(*(st.lists(s, max_size=20) for s in (_TEXT, _BYTES, _INTS))))
    @settings(max_examples=100, deadline=None)
    def test_candidates_batch_columns_is_per_key_candidates(self, keys):
        family = HashFamily(num_functions=5, num_buckets=37, seed=11)
        for sample in (keys, _tiled(keys)):
            columns = family.candidates_batch_columns(sample, 5)
            assert len(columns) == 5
            rows = list(zip(*columns)) if sample else []
            assert rows == [family.candidates(key, 5) for key in sample]
