"""Batch routing must be byte-identical to one-at-a-time routing.

The batched fast path (vectorized hashing, fused sketch updates, the W-C
selection heap) is pure optimisation: for every scheme, every workload and
every chunking, ``route_batch`` must produce the exact worker sequence and
final load vector of sequential ``route`` calls.  These tests pin that
contract — they are the safety net that lets future PRs optimise the hot
path further without changing experiment outputs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.registry import available_schemes, create_partitioner
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

#: Constructor extras for schemes whose signature requires them.
SCHEME_OPTIONS: dict[str, dict[str, int]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
}


def _make(scheme: str, num_workers: int, seed: int):
    return create_partitioner(
        scheme, num_workers=num_workers, seed=seed, **SCHEME_OPTIONS.get(scheme, {})
    )


def _zipf_keys(seed: int, n: int = 12_000) -> list:
    return list(ZipfWorkload(1.4, 3_000, n, seed=seed))


def _uniform_keys(seed: int, n: int = 12_000) -> list:
    rng = random.Random(seed)
    return [f"key-{rng.randrange(4_000)}" for _ in range(n)]


class TestBatchMatchesSequential:
    @pytest.mark.parametrize("scheme", available_schemes())
    @pytest.mark.parametrize("stream", ["zipf", "uniform"])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_worker_sequence_and_loads_identical(self, scheme, stream, seed):
        keys = _zipf_keys(seed) if stream == "zipf" else _uniform_keys(seed)
        sequential = _make(scheme, num_workers=40, seed=seed)
        batched = _make(scheme, num_workers=40, seed=seed)

        expected = [sequential.route(key) for key in keys]
        actual: list[int] = []
        flags: list[bool] = []
        chunk = 997  # deliberately not a divisor of the stream length
        for start in range(0, len(keys), chunk):
            actual.extend(
                batched.route_batch(keys[start : start + chunk], head_flags=flags)
            )

        assert actual == expected
        assert batched.local_loads == sequential.local_loads
        assert batched.messages_routed == sequential.messages_routed == len(keys)
        assert len(flags) == len(keys)

    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "W-C", "RR"])
    def test_head_flags_match_decision_path(self, scheme):
        keys = _zipf_keys(3, n=6_000)
        decisions = _make(scheme, num_workers=20, seed=5)
        batched = _make(scheme, num_workers=20, seed=5)

        expected = [decisions.route_with_decision(key) for key in keys]
        flags: list[bool] = []
        actual = batched.route_batch(keys, head_flags=flags)

        assert actual == [decision.worker for decision in expected]
        assert flags == [decision.is_head for decision in expected]

    @given(
        scheme=st.sampled_from(["KG", "SG", "PKG", "D-C", "W-C", "RR"]),
        num_workers=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
        stream=st.lists(st.integers(min_value=0, max_value=60), max_size=250),
        chunk=st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_streams_and_chunkings(
        self, scheme, num_workers, seed, stream, chunk
    ):
        sequential = _make(scheme, num_workers=num_workers, seed=seed)
        batched = _make(scheme, num_workers=num_workers, seed=seed)
        expected = [sequential.route(key) for key in stream]
        actual: list[int] = []
        for start in range(0, len(stream), chunk):
            actual.extend(batched.route_batch(stream[start : start + chunk]))
        assert actual == expected
        assert batched.local_loads == sequential.local_loads

    def test_warmup_boundary_is_respected(self):
        # The head test must stay disabled for exactly warmup_messages - 1
        # messages in both paths; a hot-only stream makes any off-by-one in
        # the inlined warmup comparison flip a decision.
        keys = ["hot"] * 400
        sequential = create_partitioner("W-C", num_workers=8, seed=1, warmup_messages=100)
        batched = create_partitioner("W-C", num_workers=8, seed=1, warmup_messages=100)
        expected = [sequential.route(key) for key in keys]
        assert batched.route_batch(keys) == expected


class TestDChoicesCheckpointEquivalence:
    """D-Choices' batched driver splits chunks at solver-throttle
    checkpoints; the split arithmetic must reproduce the scalar check
    cadence for any check/recompute interval and any chunking."""

    @pytest.mark.parametrize("check_interval", [1, 3, 50, 200])
    @pytest.mark.parametrize("chunk", [1, 7, 256, 4096])
    def test_any_throttle_cadence(self, check_interval, chunk):
        keys = _zipf_keys(8, n=5_000)
        options = dict(
            num_workers=16,
            seed=2,
            warmup_messages=50,
            check_interval=check_interval,
            recompute_interval=max(2, check_interval * 3),
        )
        sequential = create_partitioner("D-C", **options)
        batched = create_partitioner("D-C", **options)
        expected = [sequential.route(key) for key in keys]
        actual: list[int] = []
        flags: list[bool] = []
        for start in range(0, len(keys), chunk):
            actual.extend(
                batched.route_batch(keys[start : start + chunk], head_flags=flags)
            )
        assert actual == expected
        assert batched.local_loads == sequential.local_loads
        assert len(flags) == len(keys)
        assert batched.current_solution() == sequential.current_solution()

    def test_explicit_theta(self):
        keys = _zipf_keys(4, n=6_000)
        sequential = create_partitioner(
            "D-C", num_workers=12, seed=3, theta=0.03, warmup_messages=0
        )
        batched = create_partitioner(
            "D-C", num_workers=12, seed=3, theta=0.03, warmup_messages=0
        )
        expected = [sequential.route(key) for key in keys]
        actual: list[int] = []
        for start in range(0, len(keys), 512):
            actual.extend(batched.route_batch(keys[start : start + 512]))
        assert actual == expected

    def test_all_tail_stream(self):
        # No key ever reaches the head: the driver must stay on its bulk
        # path (one stop-at-head scan per chunk) and still match scalar.
        keys = [f"cold-{index}" for index in range(5_000)]
        sequential = create_partitioner("D-C", num_workers=10, seed=1)
        batched = create_partitioner("D-C", num_workers=10, seed=1)
        expected = [sequential.route(key) for key in keys]
        actual: list[int] = []
        for start in range(0, len(keys), 1024):
            actual.extend(batched.route_batch(keys[start : start + 1024]))
        assert actual == expected


class TestEngineBatchingInvariance:
    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "W-C", "SG"])
    def test_simulation_results_independent_of_batch_size(self, scheme):
        def run(batch_size: int):
            return run_simulation(
                ZipfWorkload(1.4, 2_000, 30_000, seed=2),
                scheme=scheme,
                num_workers=25,
                num_sources=5,
                seed=4,
                track_interval=500,
                track_head_tail=True,
                mode="scalar" if batch_size == 1 else f"batched:{batch_size}",
            )

        scalar = run(1)
        batched = run(613)
        assert batched.worker_loads == scalar.worker_loads
        assert batched.final_imbalance == scalar.final_imbalance
        assert batched.head_loads == scalar.head_loads
        assert batched.tail_loads == scalar.tail_loads
        assert batched.memory_entries == scalar.memory_entries
        assert batched.head_key_count == scalar.head_key_count
        assert batched.time_series.values == scalar.time_series.values
