"""How the "d" head path derives its candidate tuples, and what it keeps.

A head key that misses its sender's cache is derived together with every
other uncached id left in its head run: one
:meth:`HashFamily.candidates_for_ids` call, which extends the dictionary's
raw prefixes with one bulk kernel call per prefix length (``_mix`` per id
when the group is under the bulk floor).  The derived
tuples are kept per effective ``d``, so a ``d`` the solver returns to
derives nothing.  Pinned here: the values (every tuple is the deduplicated
scalar prefix, and the placements are the first-minimum scan of it), a bulk
larger than every bound it fills, and the counts of kernel calls.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import hash_family
from repro.hashing.hash_family import HashFamily
from repro.partitioning.head_tail import HeadTailPartitioner
from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import KeyDictionary

NUM_WORKERS = 24
KEYS = [f"key-{index}" for index in range(40)] + list(range(-5, 15))


def _bound(scheme: str, dictionary: KeyDictionary, seed: int, **options):
    partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=seed, **options)
    partitioner._bind_dictionary(dictionary)
    return partitioner


def _place_run(partitioner, kids: list[int], d: int) -> list[int]:
    """One all-head run of ``kids`` through the kernel's "d" mode."""
    out: list[int] = []
    partitioner._route_runs(kids, [len(kids)], [], ("d", d), out)
    return out


def _first_minimum(loads: list[int], candidates) -> int:
    return min(candidates, key=lambda worker: (loads[worker], candidates.index(worker)))


POSITIONS = st.integers(0, len(KEYS) - 1)
# Few values, so a drawn sequence rises, falls and comes back.
CHOICES = st.sampled_from([2, 3, 5, 9, NUM_WORKERS])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    primed=st.lists(
        st.tuples(st.lists(POSITIONS, max_size=20), st.integers(1, NUM_WORKERS)),
        max_size=3,
    ),
    steps=st.lists(
        st.tuples(st.lists(POSITIONS, min_size=1, max_size=60), CHOICES),
        min_size=1,
        max_size=8,
    ),
)
def test_every_derived_tuple_is_the_deduplicated_scalar_prefix(seed, primed, steps):
    dictionary = KeyDictionary()
    ids = dictionary.intern_keys(KEYS).tolist()
    reference = HashFamily(NUM_WORKERS, NUM_WORKERS, seed)
    # Narrower families of the same identity asked for some ids first: the
    # runs below meet prefixes of every length, some already long enough.
    for positions, width in primed:
        HashFamily(width, NUM_WORKERS, seed).candidates_for_ids(
            [ids[p] for p in positions], dictionary, width
        )
    partitioner = _bound("D-C", dictionary, seed)
    loads = [0] * NUM_WORKERS
    for positions, d in steps:
        run = [ids[p] for p in positions]  # with repeats
        assert partitioner._hashes.candidates_for_ids(run, dictionary, d) == [
            reference.candidates(KEYS[p], d) for p in positions
        ]
        workers = _place_run(partitioner, run, d)
        for position, worker in zip(positions, workers):
            expected = tuple(dict.fromkeys(reference.candidates(KEYS[position], d)))
            assert worker == _first_minimum(loads, expected)
            loads[worker] += 1
        assert partitioner._state.loads == loads
        for kept_d, (cache, floors) in partitioner._head_by_d.items():
            assert cache.keys() == floors.keys()
            for kid, candidates in cache.items():
                key = dictionary.key_of(kid)
                assert candidates == tuple(dict.fromkeys(reference.candidates(key, kept_d)))
                assert floors[kid] <= min(loads[worker] for worker in candidates)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    steps=st.lists(
        st.tuples(st.lists(POSITIONS, min_size=1, max_size=12), st.integers(1, NUM_WORKERS)),
        min_size=1,
        max_size=6,
    ),
    floor=st.sampled_from([0, hash_family._BULK_MIN_PAIRS, 10**9]),
)
def test_prefixes_are_the_scalar_tuples_on_both_sides_of_the_floor(seed, steps, floor):
    """All bulk, the default floor, all ``_mix``: the same tuples and store."""
    dictionary = KeyDictionary()
    ids = dictionary.intern_keys(KEYS).tolist()
    reference = HashFamily(NUM_WORKERS, NUM_WORKERS, seed)
    family = HashFamily(NUM_WORKERS, NUM_WORKERS, seed)
    default, hash_family._BULK_MIN_PAIRS = hash_family._BULK_MIN_PAIRS, floor
    try:
        for positions, d in steps:
            assert family.candidates_for_ids([ids[p] for p in positions], dictionary, d) == [
                reference.candidates(KEYS[p], d) for p in positions
            ]
    finally:
        hash_family._BULK_MIN_PAIRS = default
    (table,) = dictionary.hash_rows.values()
    for kid, prefix in table.heads.items():
        assert prefix == reference.candidates(KEYS[kid], len(prefix))


def test_groups_under_the_floor_are_mixed_per_id(monkeypatch):
    """A group of fewer than ``_BULK_MIN_PAIRS`` (id, function) pairs is
    extended by ``_mix`` per id, one at the floor by one kernel call; the
    floor is read per prefix length, so one call may take both sides."""
    floor = hash_family._BULK_MIN_PAIRS
    calls: list[int] = []
    mixes: list[int] = []
    kernel, mix = hash_family.bucketed_hashes, HashFamily._mix

    def counted_kernel(key_ints, mixed_seeds, num_buckets):
        calls.append(key_ints.size * mixed_seeds.size)
        return kernel(key_ints, mixed_seeds, num_buckets)

    def counted_mix(self, folded, d, start=0):
        mixes.append(d - start)
        return mix(self, folded, d, start)

    monkeypatch.setattr(hash_family, "bucketed_hashes", counted_kernel)
    monkeypatch.setattr(HashFamily, "_mix", counted_mix)
    dictionary = KeyDictionary()
    ids = dictionary.intern_keys(KEYS).tolist()
    family = HashFamily(NUM_WORKERS, NUM_WORKERS, 3)
    reference = HashFamily(NUM_WORKERS, NUM_WORKERS, 3)

    def derive(positions: list[int], d: int) -> None:
        expected = [reference.candidates(KEYS[p], d) for p in positions]
        calls.clear()
        mixes.clear()
        assert family.candidates_for_ids([ids[p] for p in positions], dictionary, d) == expected

    derive([0], floor - 1)  # one id, one pair short of the floor
    assert calls == [] and mixes == [floor - 1]
    derive([1], floor)
    assert calls == [floor] and mixes == []
    derive([0], floor)  # one more function for a known prefix
    assert calls == [] and mixes == [1]
    # Two prefix lengths in one call: 0 and 1 need one function each, the
    # four fresh ids every one.
    derive([0, 2, 3, 1, 4, 5], floor + 1)
    assert calls == [4 * (floor + 1)] and mixes == [1, 1]
    (table,) = dictionary.hash_rows.values()
    assert table.heads[ids[0]] == reference.candidates(KEYS[0], floor + 1)


def test_a_bulk_larger_than_both_bounds(monkeypatch):
    monkeypatch.setattr(HeadTailPartitioner, "_HEAD_CANDIDATE_CACHE_LIMIT", 8)
    monkeypatch.setattr(hash_family, "_HEAD_PREFIX_LIMIT", 8)
    dictionary = KeyDictionary()
    keys = [f"hot-{index}" for index in range(50)]
    ids = dictionary.intern_keys(keys).tolist()
    reference = HashFamily(NUM_WORKERS, NUM_WORKERS, 1)
    # The store keeps 8 of the 50 prefixes it is handed: the rows come back
    # from what the call derived.
    assert reference.candidates_for_ids(ids + ids[:5], dictionary, 6) == [
        reference.candidates(key, 6) for key in keys + keys[:5]
    ]
    (table,) = dictionary.hash_rows.values()
    assert len(table.heads) == 8

    partitioner = _bound("FIXED-D", dictionary, 1, num_choices=6)
    loads = [0] * NUM_WORKERS
    for kid, worker in zip(ids * 2, _place_run(partitioner, ids * 2, 6)):
        expected = tuple(dict.fromkeys(reference.candidates(dictionary.key_of(kid), 6)))
        assert worker == _first_minimum(loads, expected)
        loads[worker] += 1
    assert len(partitioner._head_cand_cache) == len(partitioner._head_floors) == 8
    assert partitioner._head_cand_cache.keys() == partitioner._head_floors.keys()


def test_a_fresh_run_is_one_kernel_call_and_a_returning_d_derives_nothing(monkeypatch):
    calls: list[int] = []
    derivations: list[int] = []
    mixes: list[int] = []
    kernel, derive, mix = (
        hash_family.bucketed_hashes,
        HashFamily.candidates_for_ids,
        HashFamily._mix,
    )

    def counted_kernel(key_ints, mixed_seeds, num_buckets):
        if sys._getframe(1).f_code.co_name == "candidates_for_ids":
            calls.append(key_ints.size * mixed_seeds.size)
        return kernel(key_ints, mixed_seeds, num_buckets)

    def counted_derive(self, ids, dictionary, d=None):
        derivations.append(len(ids))
        return derive(self, ids, dictionary, d)

    def counted_mix(self, folded, d, start=0):
        mixes.append(d - start)
        return mix(self, folded, d, start)

    monkeypatch.setattr(hash_family, "bucketed_hashes", counted_kernel)
    monkeypatch.setattr(HashFamily, "candidates_for_ids", counted_derive)
    monkeypatch.setattr(HashFamily, "_mix", counted_mix)
    dictionary = KeyDictionary()
    run = 40  # past the scalar fragment size
    ids = dictionary.intern_keys([f"fresh-{index}" for index in range(run)]).tolist()
    partitioner = _bound("D-C", dictionary, 7)

    _place_run(partitioner, ids, 5)
    # One call for the whole run (an id at a time was 5 x run scalar mixes).
    assert calls == [5 * run] and derivations == [run] and not mixes
    _place_run(partitioner, ids, 6)
    assert calls == [5 * run, run]  # the sixth function only
    assert derivations == [run, run]
    _place_run(partitioner, ids, 5)
    _place_run(partitioner, ids, 6)
    assert calls == [5 * run, run] and derivations == [run, run] and not mixes
