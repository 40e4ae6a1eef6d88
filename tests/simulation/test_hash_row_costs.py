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

from collections import Counter

import pytest

from repro.hashing import hash_family
from repro.hashing.hash_family import HashFamily
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

#: ``sim_wide``'s shape at a few thousand messages: most keys are new, and a
#: few still cross the head threshold at n = 100.
MESSAGES, NUM_KEYS, NUM_WORKERS, SOURCES = 6_000, 1_000_000, 100, 5


def _counted_run(scheme: str, monkeypatch) -> tuple[int, Counter, int]:
    """Table rows filled, (folded key, function) pairs hashed scalar, and
    distinct keys of one 5-source columnar run."""
    rows = 0
    rounds: Counter = Counter()
    fill, mix = hash_family.bucketed_hashes, HashFamily._mix

    def counted_fill(folded, seeds, num_buckets):
        nonlocal rows
        rows += len(folded)
        return fill(folded, seeds, num_buckets)

    def counted_mix(self, folded, d, start=0):
        rounds.update((folded, function) for function in range(start, d))
        return mix(self, folded, d, start)

    monkeypatch.setattr(hash_family, "bucketed_hashes", counted_fill)
    monkeypatch.setattr(HashFamily, "_mix", counted_mix)
    workload = ZipfWorkload(0.8, NUM_KEYS, MESSAGES, seed=2016)
    result = run_simulation(
        workload, scheme, NUM_WORKERS, num_sources=SOURCES, mode="columnar:256"
    )
    assert result.num_messages == MESSAGES
    monkeypatch.undo()
    return rows, rounds, len(set(workload))


@pytest.mark.parametrize("scheme", ["PKG", "D-C"])
def test_each_key_fills_one_row_per_group(scheme, monkeypatch):
    """Five senders fill one candidate row per distinct key between them
    (each filling its own table made five)."""
    rows, _, distinct = _counted_run(scheme, monkeypatch)
    assert distinct > MESSAGES // 2  # most keys are new: the rows are the work
    assert rows == distinct


def test_each_head_pair_is_hashed_once_per_group(monkeypatch):
    """Every (head key, function) pair is hashed once however many senders
    place the key (each hashing its own prefixes made up to five)."""
    _, rounds, _ = _counted_run("D-C", monkeypatch)
    keys = {folded for folded, _ in rounds}
    assert len(keys) >= 3 and len(rounds) > 2 * len(keys)  # heads with d > 2
    assert set(rounds.values()) == {1}
