"""W-Choices' "all" placement: C scans of the load vector, exact at any ``n``.

A head message in "all" mode (W-Choices, and D-Choices once it needs
``d >= n``) goes to the first least-loaded worker.  The id kernel finds it
with ``min`` / ``count`` once per load level and ``list.index`` once per
message, and keeps ``left`` — the workers still on the level — exact by
checking each tail placement against the level.  Two kinds of pins:

* a **structural guard** counts the Python-level calls of the selection
  pass on a ``cluster_transport``-shaped stream (one sender, two workers,
  where a level holds two placements and ends on nearly every head
  message): they are a constant per chunk, never one per level;
* **deterministic equivalence** at ``n`` = 1, 2 and 3, where levels are
  shortest, holds the scalar oracle, ``route_batch_columnar`` and a
  five-sender ``SenderGroup.route_span`` to one ``(worker, is_head)``
  stream, on Zipf streams long enough to run far past the warmup and on a
  hand-built stream whose tail messages take the last worker off the
  minimum level right before a head message.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.execution import SenderGroup
from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

SCHEMES = ("W-C", "D-C")


# ---------------------------------------------------------------------- #
# (a) structural guard
# ---------------------------------------------------------------------- #
def _selection_calls(chunks: int) -> tuple[int, int]:
    """Python-level calls the selection pass of W-C at ``n = 2`` makes over
    ``chunks`` 1,024-message chunks of Zipf 1.4, and the head messages it
    placed.  Only ``_route_runs`` is profiled: the sketch pass before it
    has its own cost pins."""
    workload = ZipfWorkload(1.4, 10_000, chunks * 1_024, seed=2016)
    scheme = create_partitioner("W-C", num_workers=2)
    route_runs = scheme._route_runs
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    def profiled_route_runs(*args):
        sys.setprofile(profiler)
        try:
            return route_runs(*args)
        finally:
            sys.setprofile(None)

    scheme._route_runs = profiled_route_runs
    heads = 0
    for batch in workload.iter_batches_columnar(1_024):
        _, flags = scheme._route_columnar(batch)
        heads += int(flags.sum())
    return count, heads


def test_selection_makes_no_python_call_per_level():
    """A handful of calls per chunk — the tail gather's wrappers — plus the
    candidate table's one-off build, at 20 chunks and at 40.  (The level
    queue this replaced rebuilt itself through a method and a list
    comprehension whenever a level ran out: 14,793 calls over 20 chunks,
    30,144 over 40.)"""
    for chunks in (20, 40):
        calls, heads = _selection_calls(chunks)
        assert heads > 300 * chunks, "most messages must be head: vacuous otherwise"
        assert calls <= 8 * chunks, (calls, chunks)


# ---------------------------------------------------------------------- #
# (b) deterministic equivalence at tiny n
# ---------------------------------------------------------------------- #
CHUNK = 333
NUM_SENDERS = 5


def _oracle(scheme: str, num_workers: int, keys: list[str], num_senders: int = 1):
    """Message ``i`` through ``route_with_decision`` of sender
    ``i % num_senders``; returns the pairs and the senders' loads."""
    senders = [
        create_partitioner(scheme, num_workers=num_workers) for _ in range(num_senders)
    ]
    pairs = []
    for index, key in enumerate(keys):
        decision = senders[index % num_senders].route_with_decision(key)
        pairs.append((decision.worker, decision.is_head))
    return pairs, [sender.local_loads for sender in senders]


def _columnar(scheme: str, num_workers: int, keys: list[str], chunk: int):
    partitioner = create_partitioner(scheme, num_workers=num_workers)
    dictionary = KeyDictionary()
    workers: list[int] = []
    flags: list[bool] = []
    for start in range(0, len(keys), chunk):
        batch = ColumnarBatch(
            dictionary.intern_keys(keys[start : start + chunk]), dictionary, start
        )
        workers += partitioner.route_batch_columnar(batch, head_flags=flags)
    return list(zip(workers, flags)), [partitioner.local_loads]


def _spans(scheme: str, num_workers: int, keys: list[str], chunk: int):
    group = SenderGroup.build(scheme, NUM_SENDERS, num_workers)
    dictionary = KeyDictionary()
    pairs = []
    for start in range(0, len(keys), chunk):
        batch = ColumnarBatch(
            dictionary.intern_keys(keys[start : start + chunk]), dictionary, start
        )
        workers, heads = group.route_span(batch, start)
        if heads is None:
            heads = np.zeros(len(workers), dtype=bool)
        pairs += zip(workers.tolist(), heads.tolist())
    return pairs, [sender.local_loads for sender in group.partitioners]


def _zipf_keys(exponent: float) -> list[str]:
    # Ten keys: at theta = 1/(5n) even Zipf 0.6 has a head at n = 1.
    workload = ZipfWorkload(exponent, 10, 6_000, seed=17)
    return [f"key-{rank}" for rank in workload]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("num_workers", [1, 2, 3])
@pytest.mark.parametrize("exponent", [0.6, 1.4, 2.0])
def test_zipf_streams_route_as_the_oracle(scheme, num_workers, exponent):
    keys = _zipf_keys(exponent)
    expected = _oracle(scheme, num_workers, keys)
    assert _columnar(scheme, num_workers, keys, CHUNK) == expected
    dealt = _oracle(scheme, num_workers, keys, NUM_SENDERS)
    assert _spans(scheme, num_workers, keys, CHUNK) == dealt
    heads = sum(is_head for _, is_head in expected[0])
    assert 0 < heads < len(keys), "both paths must run"


def _build_handbuilt(scheme: str):
    return create_partitioner(scheme, num_workers=3, theta=0.3, warmup_messages=0)


def _tail_takes_the_last_minimum(scheme: str) -> list[str]:
    """Three hot messages, then thirty rounds of ``hot, hot, cold`` at
    ``n = 3`` with theta 0.3.

    The two hot messages of a round are head and land on workers 0 and 1,
    which leaves worker 2 alone on the minimum level; each round's cold key
    is a distinct tail key with worker 2 among its two candidates, so it
    takes that worker, the level is spent, and the next round's first head
    message finds none left on it.
    """
    hashes = _build_handbuilt(scheme)._hashes
    cold = (f"cold-{index}" for index in range(10_000))
    rounds = ["hot"] * 3
    for _ in range(30):
        key = next(key for key in cold if 2 in hashes.candidates(key, 2))
        rounds += ["hot", "hot", key]
    return rounds


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tail_spends_the_level_before_a_head(scheme):
    keys = _tail_takes_the_last_minimum(scheme)
    oracle = _build_handbuilt(scheme)
    expected = [oracle.route_with_decision(key).worker for key in keys]
    assert expected == [0, 1, 2] * 31, "the stream must spend each level on a tail"
    assert oracle._head_selection() == ("all", 0)

    partitioner = _build_handbuilt(scheme)
    flags: list[bool] = []
    assert partitioner.route_batch(keys, head_flags=flags) == expected
    assert flags == [True] * 3 + [True, True, False] * 30
    assert partitioner.local_loads == oracle.local_loads == [31, 31, 31]

    # Five senders, each dealt the whole hand-built stream.
    group = SenderGroup([_build_handbuilt(scheme) for _ in range(NUM_SENDERS)])
    dictionary = KeyDictionary()
    dealt = [key for key in keys for _ in range(NUM_SENDERS)]
    batch = ColumnarBatch(dictionary.intern_keys(dealt), dictionary, 0)
    workers, heads = group.route_span(batch, 0)
    assert workers.tolist() == [worker for worker in expected for _ in range(NUM_SENDERS)]
    assert heads.tolist() == [flag for flag in flags for _ in range(NUM_SENDERS)]
