"""Per-id candidate tables: the hash family's columnar fast path.

``id_candidate_rows`` must be a pure gather view of scalar ``candidates`` —
bit-identical for every dictionary state, growth pattern and requested d —
and the table lifecycle (lazy growth, wider-d rebuild, FIFO bounding,
rescale invalidation) must never leak stale buckets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing import hash_family as hf
from repro.hashing.hash_family import HashFamily
from repro.workloads.columnar import KeyDictionary


def _intern(dictionary: KeyDictionary, keys) -> np.ndarray:
    return dictionary.intern_keys(keys)


def _scalar_rows(family: HashFamily, keys, d=None) -> np.ndarray:
    """The reference: one scalar ``candidates`` call per key."""
    return np.array([family.candidates(key, d) for key in keys], dtype=np.int64)


class TestIdCandidateRows:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_scalar_candidates(self, d):
        family = HashFamily(num_functions=5, num_buckets=23, seed=11)
        dictionary = KeyDictionary()
        keys = [f"key-{i % 37}" for i in range(300)] + list(range(50))
        ids = _intern(dictionary, keys)
        rows = family.id_candidate_rows(ids, dictionary, d)
        expected = _scalar_rows(family, keys, d)
        assert np.array_equal(rows, expected)

    def test_table_grows_with_the_dictionary(self):
        family = HashFamily(num_functions=2, num_buckets=17, seed=3)
        dictionary = KeyDictionary()
        first = _intern(dictionary, [f"a{i}" for i in range(10)])
        rows_before = family.id_candidate_rows(first, dictionary)
        # Intern more keys after the table was built: the table must extend.
        second = _intern(dictionary, [f"b{i}" for i in range(2_000)])
        rows_after = family.id_candidate_rows(second, dictionary)
        assert np.array_equal(
            rows_after, _scalar_rows(family, [f"b{i}" for i in range(2_000)])
        )
        # The earlier ids still gather the same buckets.
        assert np.array_equal(
            family.id_candidate_rows(first, dictionary), rows_before
        )

    def test_wider_d_rebuild_is_prefix_stable(self):
        family = HashFamily(num_functions=6, num_buckets=19, seed=7)
        dictionary = KeyDictionary()
        ids = _intern(dictionary, [f"k{i}" for i in range(100)])
        narrow = family.id_candidate_rows(ids, dictionary, 2)
        wide = family.id_candidate_rows(ids, dictionary, 6)
        assert np.array_equal(wide[:, :2], narrow)
        assert np.array_equal(
            wide, _scalar_rows(family, [f"k{i}" for i in range(100)], 6)
        )

    def test_scalar_and_column_views_agree(self):
        family = HashFamily(num_functions=2, num_buckets=13, seed=5)
        dictionary = KeyDictionary()
        keys = ["alpha", "beta", "gamma", 42, -1]
        ids = _intern(dictionary, keys)
        rows = family.id_candidate_rows(ids, dictionary)
        columns = family.id_candidate_columns(ids, dictionary)
        for position, (key, kid) in enumerate(zip(keys, ids.tolist())):
            assert family.candidates_for_id(kid, dictionary) == family.candidates(key)
            assert tuple(rows[position].tolist()) == family.candidates(key)
            assert (columns[0][position], columns[1][position]) == family.candidates(key)
        # Head keys are hashed by id only (the scalar oracle included): from
        # the dictionary's folded key, extending whatever prefix the caller
        # holds.  Every d, every prefix length, every key type.
        keys = (
            ["", "a", "alpha", "exactly8", "nine char", "é-unicode-ü", "w" * 41]
            + [b"", b"\x00", b"bytes-key", bytes(range(30))]
            + [0, 1, -1, 7, 2**40 + 3, 2**63 - 1, -(2**63), 2**64 + 5]
        )
        for seed in (0, 7):
            family = HashFamily(num_functions=9, num_buckets=13, seed=seed)
            dictionary = KeyDictionary()
            ids = _intern(dictionary, keys).tolist()
            for key, kid in zip(keys, ids):
                for d in range(1, 10):
                    expected = family.candidates(key, d)
                    for held in range(d + 1):
                        prefix = expected[:held]
                        assert family.candidates_for_id(kid, dictionary, d, prefix) == expected

    def test_tables_are_fifo_bounded_per_family(self, monkeypatch):
        monkeypatch.setattr(hf, "_MAX_ID_TABLES", 3)
        family = HashFamily(num_functions=4, num_buckets=11, seed=1)
        dictionaries = [KeyDictionary() for _ in range(5)]
        for dictionary in dictionaries:
            ids = _intern(dictionary, ["x", "y"])
            family.id_candidate_rows(ids, dictionary, 2)
            # Widening a held table replaces it in place: no eviction.
            family.id_candidate_rows(ids, dictionary, 4)
        assert list(family._id_tables) == [d.token for d in dictionaries[2:]]
        # The oldest dictionaries were evicted; re-querying just rebuilds.
        evicted = dictionaries[0]
        again = family.id_candidate_rows(
            _intern(evicted, ["x", "y"]), evicted
        )
        assert np.array_equal(again, _scalar_rows(family, ["x", "y"]))

    def test_dictionary_tokens_are_unique_across_instances(self):
        # id() reuse after garbage collection must not alias tables; the
        # token counter guarantees distinct keys for distinct dictionaries.
        tokens = {KeyDictionary().token for _ in range(100)}
        assert len(tokens) == 100


class TestRescaleInvalidation:
    def test_scheme_rebuild_drops_id_tables(self):
        """Rescaling recreates the scheme's hash family, so per-id tables
        keyed to the old bucket count can never serve the new topology."""
        from repro.partitioning.registry import create_partitioner
        from repro.workloads.columnar import ColumnarBatch

        dictionary = KeyDictionary()
        ids = _intern(dictionary, [f"k{i % 53}" for i in range(1_000)])

        routed = create_partitioner("PKG", num_workers=10, seed=2)
        mirror = create_partitioner("PKG", num_workers=10, seed=2)
        routed.route_batch_columnar(ColumnarBatch(ids, dictionary))
        mirror.route_batch(dictionary.decode(ids))

        routed.rescale(14)
        mirror.rescale(14)
        after = routed.route_batch_columnar(ColumnarBatch(ids, dictionary))
        expected = mirror.route_batch(dictionary.decode(ids))
        assert after == expected
        assert max(after) < 14
