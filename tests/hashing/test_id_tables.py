"""Per-id candidate tables: the hash family's columnar fast path.

``id_candidate_rows`` must be a pure gather view of scalar ``candidates`` —
bit-identical for every dictionary state, growth pattern and requested d —
and the table lifecycle (lazy growth, wider-d rebuild, FIFO bounding, a
rescale reading another identity's rows) must never leak stale buckets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashing.hash_family import HashFamily
from repro.workloads import columnar
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
        heads = family.candidates_for_ids(ids.tolist(), dictionary)
        for position, key in enumerate(keys):
            assert heads[position] == family.candidates(key)
            assert tuple(rows[position].tolist()) == family.candidates(key)
            assert (columns[0][position], columns[1][position]) == family.candidates(key)
        # Head keys are hashed by id only (the scalar oracle included): from
        # the dictionary's folded key, extending whatever tuple the store
        # holds.  Every d, asked for in rising and in falling order, every
        # key type.
        keys = (
            ["", "a", "alpha", "exactly8", "nine char", "é-unicode-ü", "w" * 41]
            + [b"", b"\x00", b"bytes-key", bytes(range(30))]
            + [0, 1, -1, 7, 2**40 + 3, 2**63 - 1, -(2**63), 2**64 + 5]
        )
        for seed in (0, 7):
            for order in (range(1, 10), range(9, 0, -1), (3, 1, 5, 2, 9, 4)):
                family = HashFamily(num_functions=9, num_buckets=13, seed=seed)
                dictionary = KeyDictionary()
                ids = _intern(dictionary, keys).tolist()
                for d in order:
                    expected = [family.candidates(key, d) for key in keys]
                    assert family.candidates_for_ids(ids, dictionary, d) == expected

    def test_tables_are_fifo_bounded_per_dictionary(self, monkeypatch):
        monkeypatch.setattr(columnar, "_MAX_HASH_IDENTITIES", 3)
        dictionary = KeyDictionary()
        ids = _intern(dictionary, ["x", "y"])
        families = [HashFamily(num_functions=4, num_buckets=n, seed=1) for n in range(11, 16)]
        for family in families:
            family.id_candidate_rows(ids, dictionary, 2)
            # Widening a held table replaces it in place: no eviction.
            family.id_candidate_rows(ids, dictionary, 4)
        assert list(dictionary.hash_rows) == [(1, n) for n in range(13, 16)]
        # The oldest identities were evicted; re-querying just rebuilds.
        evicted = families[0]
        again = evicted.id_candidate_rows(ids, dictionary)
        assert np.array_equal(again, _scalar_rows(evicted, ["x", "y"]))
        assert list(dictionary.hash_rows) == [(1, n) for n in (14, 15, 11)]

    def test_dictionary_tokens_are_unique_across_instances(self):
        # id() reuse after garbage collection must not alias tables; the
        # token counter guarantees distinct keys for distinct dictionaries.
        tokens = {KeyDictionary().token for _ in range(100)}
        assert len(tokens) == 100


class TestDictionaryOwnedRows:
    """Candidate rows belong to the dictionary, one store per hash identity
    (seed, num_buckets): every family of that identity reads them, whatever
    its size, and no other identity ever does."""

    def test_families_of_any_size_share_bit_identical_rows(self):
        n, seed = 9, 4
        dictionary = KeyDictionary()
        families = {size: HashFamily(size, n, seed) for size in (1, 2, n)}
        stored = []
        # Each family widens or grows the one table in turn: the narrow
        # family fills rows of new keys across every column the wide one
        # asked for, and still reads only its own.
        for round_, size in enumerate((1, 2, n, 1, 2, 1)):
            keys = [f"r{round_}-{i}" for i in range(40)] + list(range(round_ * 7))
            stored += keys
            ids = _intern(dictionary, keys)
            family = families[size]
            fresh = HashFamily(size, n, seed)
            for d in range(1, size + 1):
                every = _intern(dictionary, stored)
                assert np.array_equal(
                    family.id_candidate_rows(every, dictionary, d),
                    _scalar_rows(fresh, stored, d),
                )
            assert family.candidates_for_ids(ids.tolist(), dictionary) == [
                fresh.candidates(key) for key in keys
            ]
        assert list(dictionary.hash_rows) == [(seed, n)]
        (table,) = dictionary.hash_rows.values()
        assert table.rows.shape[1] == n
        assert table.filled == len(dictionary)
        # Each head tuple is as long as the widest family that asked for it.
        wide = HashFamily(n, n, seed)
        lengths = set()
        for kid, prefix in table.heads.items():
            assert prefix == wide.candidates(dictionary.key_of(kid), len(prefix))
            lengths.add(len(prefix))
        assert lengths == {1, 2, n}

    def test_other_seeds_and_bucket_counts_never_share_rows(self):
        dictionary = KeyDictionary()
        keys = [f"k{i}" for i in range(500)]
        ids = _intern(dictionary, keys)
        families = [HashFamily(3, n, seed) for seed in (0, 1) for n in (50, 51)]
        for family in families:
            assert np.array_equal(
                family.id_candidate_rows(ids, dictionary), _scalar_rows(family, keys)
            )
            assert family.candidates_for_ids(ids[:50].tolist(), dictionary) == [
                family.candidates(key) for key in keys[:50]
            ]
        assert list(dictionary.hash_rows) == [(0, 50), (0, 51), (1, 50), (1, 51)]
        tables = list(dictionary.hash_rows.values())
        assert len({id(table.rows) for table in tables}) == 4
        assert len({id(table.heads) for table in tables}) == 4
        for first, table in enumerate(tables):
            for other in tables[first + 1 :]:
                assert not np.array_equal(table.rows[: table.filled], other.rows[: other.filled])

    def test_head_ids_never_widen_the_tail_table(self):
        family = HashFamily(num_functions=20, num_buckets=20, seed=2)
        dictionary = KeyDictionary()
        ids = _intern(dictionary, [f"k{i}" for i in range(300)])
        family.id_candidate_rows(ids, dictionary, 2)
        for candidates in family.candidates_for_ids(ids[:30].tolist(), dictionary, 20):
            assert len(candidates) == 20
        (table,) = dictionary.hash_rows.values()
        assert table.rows.shape[1] == 2
        assert len(table.heads) == 30


class TestRescale:
    def test_rescale_reads_rows_of_the_new_n(self):
        """Rescaling builds a family of the new bucket count, which reads
        the dictionary's rows of that count; the old count's rows stay,
        under their own identity, and serve nobody."""
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
        assert list(dictionary.hash_rows) == [(2, 10), (2, 14)]

    def test_an_ad_switch_after_a_rescale_reads_rows_of_the_new_n(self):
        from repro.partitioning.registry import create_partitioner
        from repro.workloads import ZipfWorkload
        from repro.workloads.columnar import ColumnarBatch

        dictionary = KeyDictionary()
        flat = [f"u{i}" for i in range(3_000)]
        skewed = list(ZipfWorkload(1.6, 500, 6_000, seed=3))
        routed = create_partitioner("AD", num_workers=10, seed=2, check_interval=500)
        mirror = create_partitioner("AD", num_workers=10, seed=2, check_interval=500)
        workers = routed.route_batch_columnar(ColumnarBatch(_intern(dictionary, flat), dictionary))
        expected = mirror.route_batch(flat)
        routed.rescale(11)
        mirror.rescale(11)
        workers += routed.route_batch_columnar(
            ColumnarBatch(_intern(dictionary, skewed), dictionary)
        )
        expected += [mirror.route(key) for key in skewed]
        assert workers == expected
        # The move to D-C came after the rescale, and its head keys were
        # hashed into the rows of the new n.
        assert [(e.from_scheme, e.to_scheme) for e in routed.switch_events()][0] == ("PKG", "D-C")
        assert routed.switch_events()[0].position > 3_000
        assert list(dictionary.hash_rows) == [(2, 10), (2, 11)]
        old, new = dictionary.hash_rows.values()
        assert not old.heads and new.heads
        family = HashFamily(11, 11, 2)
        for kid, prefix in new.heads.items():
            assert prefix == family.candidates(dictionary.key_of(kid), len(prefix))
