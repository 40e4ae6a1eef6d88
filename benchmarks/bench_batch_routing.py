"""Micro-benchmarks: batched vs scalar routing throughput per scheme.

The companion of :mod:`bench_micro_routing`: same workload (Zipf 1.4,
50 workers, 20k messages), but routing the stream through
``Partitioner.route_batch`` in engine-sized chunks instead of per-message
``route`` calls.  The property suite guarantees both paths make identical
decisions, so any delta here is pure hot-path cost.

Run ``benchmarks/run_routing_bench.py`` for the scripted scalar-vs-batch
comparison that records ``BENCH_routing.json``.
"""

from __future__ import annotations

import pytest

from repro.partitioning.registry import create_partitioner
from repro.workloads.zipf_stream import ZipfWorkload

NUM_WORKERS = 50
NUM_MESSAGES = 20_000
BATCH_SIZE = 2_048

SCHEMES = ("KG", "SG", "PKG", "D-C", "W-C", "RR")


@pytest.fixture(scope="module")
def message_keys():
    return list(ZipfWorkload(1.4, 10_000, NUM_MESSAGES, seed=9))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_routing_throughput(benchmark, scheme, message_keys):
    def route_stream_batched():
        partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1)
        for start in range(0, len(message_keys), BATCH_SIZE):
            partitioner.route_batch(message_keys[start : start + BATCH_SIZE])
        return partitioner.messages_routed

    routed = benchmark.pedantic(route_stream_batched, rounds=3, iterations=1)
    assert routed == NUM_MESSAGES


def test_space_saving_bulk_update_rate(benchmark, message_keys):
    from repro.sketches.space_saving import SpaceSaving

    def feed_sketch_bulk():
        sketch = SpaceSaving(capacity=500)
        sketch.add_all(message_keys)
        return sketch.total

    total = benchmark.pedantic(feed_sketch_bulk, rounds=3, iterations=1)
    assert total == NUM_MESSAGES


def test_intern_and_gather_rate(benchmark, message_keys):
    # What route_batch pays per chunk before any scheme logic: interning
    # the key list, then gathering candidate rows from the per-id table.
    from repro.hashing.hash_family import HashFamily
    from repro.workloads.columnar import KeyDictionary

    def hash_stream():
        family = HashFamily(num_functions=2, num_buckets=NUM_WORKERS, seed=1)
        dictionary = KeyDictionary()
        hashed = 0
        for start in range(0, len(message_keys), BATCH_SIZE):
            ids = dictionary.intern_keys(message_keys[start : start + BATCH_SIZE])
            hashed += len(family.id_candidate_rows(ids, dictionary, 2))
        return hashed

    hashed = benchmark.pedantic(hash_stream, rounds=3, iterations=1)
    assert hashed == NUM_MESSAGES
