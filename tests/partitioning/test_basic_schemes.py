"""Unit tests for KG, SG, PKG and the Greedy-d building block."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.exceptions import ConfigurationError
from repro.partitioning.greedy_d import GreedyD
from repro.partitioning.key_grouping import KeyGrouping
from repro.partitioning.partial_key_grouping import PartialKeyGrouping
from repro.partitioning.shuffle_grouping import ShuffleGrouping
from repro.workloads.zipf_stream import ZipfWorkload


class TestPartitionerBase:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            KeyGrouping(num_workers=0)

    def test_local_loads_track_routing(self):
        scheme = KeyGrouping(num_workers=4, seed=1)
        for key in ["a", "b", "c", "a"]:
            scheme.route(key)
        assert sum(scheme.local_loads) == 4
        assert scheme.messages_routed == 4

    def test_reset_clears_state(self):
        scheme = PartialKeyGrouping(num_workers=4, seed=1)
        for index in range(10):
            scheme.route(f"k{index}")
        scheme.reset()
        assert sum(scheme.local_loads) == 0
        assert scheme.messages_routed == 0

    def test_route_with_decision_consistency(self):
        scheme = PartialKeyGrouping(num_workers=8, seed=2)
        decision = scheme.route_with_decision("key")
        assert decision.worker in scheme.key_candidates("key")
        assert decision.is_head is False


class TestKeyGrouping:
    def test_sticky_per_key(self):
        scheme = KeyGrouping(num_workers=16, seed=3)
        first = scheme.route("user-1")
        assert all(scheme.route("user-1") == first for _ in range(20))

    def test_different_keys_spread(self):
        scheme = KeyGrouping(num_workers=16, seed=3)
        workers = {scheme.route(f"key-{i}") for i in range(500)}
        assert len(workers) == 16

    def test_same_seed_same_mapping(self):
        one = KeyGrouping(num_workers=10, seed=5)
        two = KeyGrouping(num_workers=10, seed=5)
        assert [one.route(f"k{i}") for i in range(50)] == [
            two.route(f"k{i}") for i in range(50)
        ]

    def test_candidates_single(self):
        scheme = KeyGrouping(num_workers=10, seed=5)
        decision = scheme.route_with_decision("x")
        assert scheme.key_candidates("x") == (decision.worker,)


class TestShuffleGrouping:
    def test_round_robin_order(self):
        scheme = ShuffleGrouping(num_workers=3, seed=0)
        assert [scheme.route("ignored") for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_seed_offsets_start(self):
        scheme = ShuffleGrouping(num_workers=4, seed=2)
        assert scheme.route("x") == 2

    def test_perfect_balance(self):
        scheme = ShuffleGrouping(num_workers=5, seed=0)
        for _ in range(1000):
            scheme.route("hot")
        loads = scheme.local_loads
        assert max(loads) - min(loads) == 0

    def test_reset_restores_offset(self):
        scheme = ShuffleGrouping(num_workers=4, seed=1)
        scheme.route("a")
        scheme.reset()
        assert scheme.route("a") == 1


class TestPartialKeyGrouping:
    def test_key_confined_to_two_workers(self):
        scheme = PartialKeyGrouping(num_workers=32, seed=7)
        workers = {scheme.route("hot") for _ in range(500)}
        assert len(workers) <= 2

    def test_picks_less_loaded_candidate(self):
        scheme = PartialKeyGrouping(num_workers=8, seed=1)
        scheme.route("k")
        first, second = scheme.key_candidates("k")
        if first != second:
            # preload the first candidate heavily; the next routing of the
            # same key must go to the other candidate
            for _ in range(10):
                scheme._state.loads[first] += 1
            assert scheme.route("k") == second

    def test_balances_better_than_kg_on_skew(self):
        workload = list(ZipfWorkload(1.5, 500, 20_000, seed=3))
        kg = KeyGrouping(num_workers=10, seed=4)
        pkg = PartialKeyGrouping(num_workers=10, seed=4)
        for key in workload:
            kg.route(key)
            pkg.route(key)
        assert max(pkg.local_loads) <= max(kg.local_loads)

    def test_two_sources_agree_on_candidates(self):
        one = PartialKeyGrouping(num_workers=16, seed=9)
        two = PartialKeyGrouping(num_workers=16, seed=9)
        assert one.key_candidates("k") == two.key_candidates("k")
        assert one.route("k") == two.route("k")


class TestGreedyD:
    def test_rejects_bad_choice_count(self):
        with pytest.raises(ConfigurationError):
            GreedyD(num_workers=4, num_choices=0)

    def test_caps_choices_at_worker_count(self):
        scheme = GreedyD(num_workers=4, num_choices=100)
        assert scheme.num_choices == 4

    def test_key_confined_to_d_workers(self):
        scheme = GreedyD(num_workers=50, num_choices=5, seed=1)
        workers = {scheme.route("hot") for _ in range(1000)}
        assert len(workers) <= 5

    def test_more_choices_reduce_max_load(self):
        workload = list(ZipfWorkload(2.0, 200, 20_000, seed=5))
        max_loads = []
        for d in (1, 2, 8):
            scheme = GreedyD(num_workers=20, num_choices=d, seed=2)
            for key in workload:
                scheme.route(key)
            max_loads.append(max(scheme.local_loads))
        assert max_loads[0] >= max_loads[1] >= max_loads[2]

    def test_counter_distribution(self):
        scheme = GreedyD(num_workers=10, num_choices=10, seed=0)
        for index in range(1000):
            scheme.route(f"k{index % 37}")
        loads = Counter(scheme.local_loads)
        assert sum(scheme.local_loads) == 1000
