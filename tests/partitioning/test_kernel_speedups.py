"""What the id kernel buys over the scalar oracle, pinned as ratios.

``route_batch`` (key lists, interned per chunk) and ``route_batch_columnar``
(pre-interned id batches) both reach a scheme's id kernel ``_route_ids``;
``route`` is the per-message oracle.  A kernel knocked off its fast path
(the D-Choices solver back in the per-message loop, the head pipeline or
the id gather falling back to per-key routing) routes the same workers, so
no equivalence test notices — only the ratio drops.  The ratios are taken
in one process on one machine, so they hold on any hardware where absolute
msg/s would not.
"""

from __future__ import annotations

import time

import pytest

from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

NUM_WORKERS = 50
MESSAGES = 6_000
CHUNK = 2_048

#: ``(route_batch / route, route_batch_columnar / route)`` per scheme, as
#: recorded in ``BENCH_routing.json`` @ 535e8aa (Zipf 1.4 over 10k keys,
#: 50 workers, chunks of 2,048, best of 5 at 20,000 messages).
BASELINE = {
    "PKG": (2.68, 5.61),
    "D-C": (2.13, 2.15),
    "W-C": (3.58, 4.19),
}

#: The share of the baseline a ratio must keep: the nightly guard's 30 %.
FLOOR = 0.7


def _best_of_three(*runs) -> list[float]:
    """Each run's shortest wall time over three interleaved rounds."""
    best = [float("inf")] * len(runs)
    for _ in range(3):
        for index, run in enumerate(runs):
            started = time.perf_counter()
            run()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def stream():
    """The key list and its pre-interned chunks, built outside every timer."""
    keys = list(ZipfWorkload(1.4, 10_000, MESSAGES, seed=9))
    dictionary = KeyDictionary()
    batches = [
        ColumnarBatch(dictionary.intern_keys(keys[start : start + CHUNK]), dictionary, start)
        for start in range(0, MESSAGES, CHUNK)
    ]
    return keys, batches


@pytest.mark.parametrize("scheme", sorted(BASELINE))
def test_id_kernel_keeps_its_speedup_over_the_oracle(scheme, stream):
    """Both kernel entries keep 0.7x of their recorded speedup over ``route``.

    Each side builds a fresh partitioner (seed 1) inside its timer and
    routes 6,000 messages of Zipf 1.4 over 10^4 keys (seed 9); the three
    sides take turns for three rounds and each keeps its best.  Fifteen runs
    on a 2-core container read PKG 2.35-2.90 / 4.59-5.98, D-C 2.25-2.84 /
    2.63-3.28 and W-C 3.61-4.11 / 4.65-5.63 against floors of 1.88 / 3.93,
    1.49 / 1.51 and 2.51 / 2.93.  Timed one side after the other instead of
    in turns, PKG's columnar ratio read 3.3-3.5 in two runs of nine: a
    burst of machine noise then lands on all three rounds of one side.  A
    kernel that fell back to per-key routing reads ~1.
    """
    keys, batches = stream

    def scalar() -> None:
        route = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1).route
        for key in keys:
            route(key)

    def batched() -> None:
        partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1)
        for start in range(0, MESSAGES, CHUNK):
            partitioner.route_batch(keys[start : start + CHUNK])

    def columnar() -> None:
        partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1)
        for batch in batches:
            partitioner.route_batch_columnar(batch)

    scalar_s, batched_s, columnar_s = _best_of_three(scalar, batched, columnar)
    batch_speedup = scalar_s / batched_s
    columnar_speedup = scalar_s / columnar_s
    batch_floor, columnar_floor = (FLOOR * ratio for ratio in BASELINE[scheme])
    assert batch_speedup >= batch_floor, (
        f"{scheme} route_batch {batch_speedup:.2f}x < {batch_floor:.2f}x"
    )
    assert columnar_speedup >= columnar_floor, (
        f"{scheme} route_batch_columnar {columnar_speedup:.2f}x < {columnar_floor:.2f}x"
    )
