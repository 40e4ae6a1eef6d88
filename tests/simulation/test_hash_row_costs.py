"""What hashing a sender group's keys pays for, pinned.

The senders of a group run the same hash functions, so they agree on every
key's candidates without a routing table (Section V-A).  The rows that
record those candidates are the key dictionary's, one store per hash
identity (seed, worker count), and every sender's family reads them: a key
is hashed once per group, not once per sender.  Each sender hashing its own
copy leaves every routed worker identical — the rows are a pure function of
the key — so no equivalence test notices five times the work; this file
counts it, in the register of ``tests/simulation/test_key_state_costs.py``.
``tests/hashing/test_id_tables.py`` holds the values.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.hashing import hash_family
from repro.hashing.hash_family import HashFamily
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

#: ``sim_wide``'s shape at a few thousand messages: most keys are new, and a
#: few still cross the head threshold at n = 100.
MESSAGES, NUM_KEYS, NUM_WORKERS, SOURCES = 6_000, 1_000_000, 100, 5


def _counted_run(scheme: str, monkeypatch) -> tuple[int, Counter, list[int], int]:
    """Id-table rows filled, (folded key, function seed) pairs hashed into
    head prefixes, the pairs of each scalar ``_mix`` call, and distinct keys
    of one 5-source columnar run.  Both kinds of rows come from the one bulk
    kernel; the frame that called it tells them apart.  A head prefix under
    the bulk floor is mixed per id, and its pairs are counted there."""
    rows = 0
    mixes: list[int] = []
    rounds: Counter = Counter()
    kernel, mix = hash_family.bucketed_hashes, HashFamily._mix

    def counted_kernel(folded, seeds, num_buckets):
        nonlocal rows
        caller = sys._getframe(1).f_code.co_name
        if caller == "_id_table":
            rows += len(folded)
        else:
            assert caller == "candidates_for_ids"
            rounds.update(
                (word, seed) for word in folded.tolist() for seed in seeds.tolist()
            )
        return kernel(folded, seeds, num_buckets)

    def counted_mix(self, folded, d, start=0):
        mixes.append(d - start)
        rounds.update((folded, seed) for seed in self._mixed_seeds[start:d])
        return mix(self, folded, d, start)

    monkeypatch.setattr(hash_family, "bucketed_hashes", counted_kernel)
    monkeypatch.setattr(HashFamily, "_mix", counted_mix)
    workload = ZipfWorkload(0.8, NUM_KEYS, MESSAGES, seed=2016)
    result = run_simulation(
        workload, scheme, NUM_WORKERS, num_sources=SOURCES, mode="columnar:256"
    )
    assert result.num_messages == MESSAGES
    monkeypatch.undo()
    return rows, rounds, mixes, len(set(workload))


@pytest.mark.parametrize("scheme", ["PKG", "D-C"])
def test_each_key_fills_one_row_per_group(scheme, monkeypatch):
    """Five senders fill one candidate row per distinct key between them
    (each filling its own table made five); D-C's head prefixes are hashed
    by the same kernel and counted apart."""
    rows, rounds, _, distinct = _counted_run(scheme, monkeypatch)
    assert distinct > MESSAGES // 2  # most keys are new: the rows are the work
    assert rows == distinct
    assert bool(rounds) == (scheme == "D-C")


def test_each_head_pair_is_hashed_once_per_group(monkeypatch):
    """Every (head key, function) pair is hashed once however many senders
    place the key (each hashing its own prefixes made up to five), in bulk
    unless a prefix extension is under the floor."""
    _, rounds, mixes, _ = _counted_run("D-C", monkeypatch)
    keys = {word for word, _ in rounds}
    assert len(keys) >= 3 and len(rounds) > 2 * len(keys)  # heads with d > 2
    assert set(rounds.values()) == {1}
    assert all(pairs < hash_family._BULK_MIN_PAIRS for pairs in mixes)
    assert sum(mixes) < len(rounds) // 2
