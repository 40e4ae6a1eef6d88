"""Unit tests for the head/tail-split schemes: D-C, W-C, RR and FIXED-D."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.partitioning.d_choices import DChoices
from repro.partitioning.fixed_d import FixedDHead
from repro.partitioning.registry import create_partitioner
from repro.partitioning.round_robin_head import RoundRobinHead
from repro.partitioning.w_choices import WChoices
from repro.sketches.space_saving import SpaceSaving
from repro.workloads.zipf_stream import ZipfWorkload


def _route_all(scheme, keys):
    for key in keys:
        scheme.route(key)


class TestHeadTailCommon:
    @pytest.mark.parametrize("cls", [DChoices, WChoices, RoundRobinHead])
    def test_default_theta_is_paper_default(self, cls):
        scheme = cls(num_workers=20)
        assert scheme.theta == pytest.approx(1.0 / (5 * 20))

    @pytest.mark.parametrize("cls", [DChoices, WChoices, RoundRobinHead])
    def test_rejects_bad_theta(self, cls):
        with pytest.raises(ConfigurationError):
            cls(num_workers=10, theta=0.0)
        with pytest.raises(ConfigurationError):
            cls(num_workers=10, theta=1.5)

    @pytest.mark.parametrize("cls", [DChoices, WChoices, RoundRobinHead])
    def test_rejects_negative_warmup(self, cls):
        with pytest.raises(ConfigurationError):
            cls(num_workers=10, warmup_messages=-1)

    def test_warmup_disables_head_path(self):
        scheme = WChoices(num_workers=4, warmup_messages=1000)
        for _ in range(100):
            decision = scheme.route_with_decision("hot")
            assert decision.is_head is False

    def test_head_membership_tracks_sketch(self):
        scheme = WChoices(num_workers=4, warmup_messages=0)
        for _ in range(200):
            scheme.route("hot")
        assert scheme.is_head("hot")
        assert not scheme.is_head("cold")
        assert "hot" in scheme.current_head()

    def test_tail_keys_use_two_candidates(self):
        scheme = WChoices(num_workers=32, warmup_messages=0)
        # interleave one hot key with many cold keys
        for index in range(2000):
            scheme.route("hot")
            scheme.route(f"cold-{index}")
        cold_decision = scheme.route_with_decision("cold-1")
        assert cold_decision.is_head is False
        assert len(cold_decision.candidates) == 2

    @pytest.mark.parametrize("scheme", ["D-C", "W-C", "RR", "FIXED-D", "AD"])
    def test_sketch_is_not_injectable(self, scheme):
        # Every sender builds its own SpaceSaving; there is no option to
        # hand it one (a shared object would merge the senders' heads).
        options = {"num_choices": 3} if scheme == "FIXED-D" else {}
        with pytest.raises(TypeError):
            create_partitioner(scheme, 8, sketch=SpaceSaving(capacity=64), **options)

    def test_reset_restores_fresh_state(self):
        scheme = DChoices(num_workers=8, warmup_messages=0)
        for _ in range(500):
            scheme.route("hot")
        scheme.reset()
        assert scheme.messages_routed == 0
        assert scheme.sketch.total == 0
        assert scheme.current_num_choices() == 2


class TestWChoices:
    def test_hot_key_spread_over_all_workers(self):
        scheme = WChoices(num_workers=8, warmup_messages=0)
        workers = set()
        for _ in range(800):
            workers.add(scheme.route("hot"))
        assert workers == set(range(8))

    def test_balances_extreme_skew(self):
        workload = ZipfWorkload(2.0, 1000, 30_000, seed=3)
        scheme = WChoices(num_workers=20, warmup_messages=100)
        _route_all(scheme, workload)
        loads = scheme.local_loads
        normalized = [load / sum(loads) for load in loads]
        imbalance = max(normalized) - 1 / 20
        assert imbalance < 0.01


class TestRoundRobinHead:
    def test_head_cycles_through_workers(self):
        scheme = RoundRobinHead(num_workers=4, warmup_messages=0)
        destinations = [scheme.route("hot") for _ in range(8)]
        assert destinations[:4] == [0, 1, 2, 3]
        assert destinations[4:] == [0, 1, 2, 3]

    def test_reset_restarts_cycle(self):
        scheme = RoundRobinHead(num_workers=4, warmup_messages=0)
        scheme.route("hot")
        scheme.reset()
        assert scheme.route("hot") == 0

    def test_head_balanced_even_if_load_oblivious(self):
        workload = ZipfWorkload(2.0, 500, 20_000, seed=5)
        scheme = RoundRobinHead(num_workers=10, warmup_messages=100)
        _route_all(scheme, workload)
        loads = scheme.local_loads
        assert max(loads) / sum(loads) < 0.25


class TestFixedDHead:
    def test_rejects_small_d(self):
        with pytest.raises(ConfigurationError):
            FixedDHead(num_workers=8, num_choices=1)

    def test_caps_d_at_n(self):
        scheme = FixedDHead(num_workers=4, num_choices=10)
        assert scheme.num_choices == 4

    def test_hot_key_confined_to_d_workers(self):
        scheme = FixedDHead(num_workers=32, num_choices=3, warmup_messages=0)
        workers = {scheme.route("hot") for _ in range(500)}
        assert len(workers) <= 3

    def test_head_decision_flag(self):
        scheme = FixedDHead(num_workers=8, num_choices=4, warmup_messages=0)
        scheme.route("hot")
        decision = scheme.route_with_decision("hot")
        assert decision.is_head is True
        assert len(decision.candidates) == 4


class TestDChoices:
    def test_rejects_bad_epsilon_and_interval(self):
        with pytest.raises(ConfigurationError):
            DChoices(num_workers=8, epsilon=-1.0)
        with pytest.raises(ConfigurationError):
            DChoices(num_workers=8, recompute_interval=0)

    def test_d_grows_with_hot_key_dominance(self):
        scheme = DChoices(num_workers=20, warmup_messages=0)
        for _ in range(5000):
            scheme.route("hot")
        # a key carrying ~100% of the load needs (almost) all workers
        assert scheme.current_num_choices() >= 10

    def test_solution_cost_reported(self):
        scheme = DChoices(num_workers=20, warmup_messages=0)
        for _ in range(2000):
            scheme.route("hot")
        solution = scheme.current_solution()
        assert solution.cost == solution.num_choices * solution.head_cardinality

    def test_mild_skew_keeps_small_d(self):
        workload = ZipfWorkload(0.5, 1000, 20_000, seed=1)
        scheme = DChoices(num_workers=10, warmup_messages=100)
        _route_all(scheme, workload)
        assert scheme.current_num_choices() <= 4

    def test_balances_extreme_skew_better_than_pkg(self):
        from repro.partitioning.partial_key_grouping import PartialKeyGrouping

        workload = list(ZipfWorkload(2.0, 1000, 30_000, seed=9))
        dchoices = DChoices(num_workers=20, warmup_messages=100)
        pkg = PartialKeyGrouping(num_workers=20, seed=0)
        for key in workload:
            dchoices.route(key)
            pkg.route(key)
        assert max(dchoices.local_loads) < max(pkg.local_loads)

    def test_head_keys_marked_in_decisions(self):
        scheme = DChoices(num_workers=10, warmup_messages=0)
        for _ in range(1000):
            scheme.route("hot")
        assert scheme.route_with_decision("hot").is_head is True


class TestDChoicesSolverCache:
    """The cached solver solution must be refreshed whenever the state it
    was derived from is discarded — not only on the defaulted-theta rescale
    path that re-derives theta."""

    def _converged(self, scheme, messages=3000):
        for _ in range(messages):
            scheme.route("hot")
        return scheme.current_solution()

    def test_reset_discards_solution_and_resolves(self):
        scheme = DChoices(num_workers=20, warmup_messages=0)
        solved = self._converged(scheme)
        assert solved.head_cardinality >= 1

        scheme.reset()
        # Back to the constructor default, not the converged solution.
        assert scheme.current_solution().head_cardinality == 0
        assert scheme.current_num_choices() == 2
        assert scheme._never_solved is True

        # And the next head message triggers a fresh solve on fresh counts.
        resolved = self._converged(scheme)
        assert resolved.head_cardinality >= 1

    def test_explicit_theta_rescale_forces_resolve(self):
        # An explicit theta survives the rescale (no re-derivation), but
        # the cached solution was solved for the old n and must still be
        # thrown away.
        scheme = DChoices(num_workers=4, theta=0.02, warmup_messages=0)
        before = self._converged(scheme)
        assert before.head_cardinality >= 1

        scheme.rescale(30)
        assert scheme.theta == 0.02  # explicit theta kept
        assert scheme._never_solved is True  # solution invalidated anyway

        after = self._converged(scheme)
        # The solver ran against the new topology: feasible for n=30, and a
        # single ~100% key now warrants far more than the 4-worker answer.
        assert after.use_w_choices or after.num_choices <= 30
        assert scheme._never_solved is False

    def test_explicit_theta_shrink_rescale_forces_resolve(self):
        scheme = DChoices(num_workers=30, theta=0.02, warmup_messages=0)
        self._converged(scheme)
        scheme.rescale(4)
        assert scheme.theta == 0.02
        assert scheme._never_solved is True
        after = self._converged(scheme)
        assert after.use_w_choices or after.num_choices <= 4


class TestHeadCandidateCache:
    """The per-head-key candidate tuples are derived from the hash family
    and the solver's d; both invalidation edges must hold or routing reads
    stale workers."""

    def test_cache_fills_for_head_keys(self):
        scheme = DChoices(num_workers=30, warmup_messages=0)
        keys = list(ZipfWorkload(1.1, 50, 4000, seed=2))
        scheme.route_batch(keys)
        if not scheme.current_solution().use_w_choices:
            assert len(scheme._head_cand_cache) >= 1
            d = scheme._head_cand_cache_d
            for candidates in scheme._head_cand_cache.values():
                # deduplicated, order-preserving, within the worker range
                assert len(set(candidates)) == len(candidates) <= d
                assert all(0 <= worker < 30 for worker in candidates)

    def test_head_keys_do_not_widen_the_id_table(self):
        # A head key's d candidates are hashed from its folded key on a
        # cache miss; gathering them from the per-dictionary table would
        # widen a row for *every* key of the stream to d columns.
        scheme = DChoices(num_workers=30, warmup_messages=0)
        keys = list(ZipfWorkload(1.1, 2_000, 20_000, seed=2))
        for start in range(0, len(keys), 1_000):
            scheme.route_batch(keys[start : start + 1_000])
        assert not scheme.current_solution().use_w_choices
        assert scheme._head_cand_cache_d > 2  # the head really used d > 2
        assert any(len(c) > 2 for c in scheme._head_cand_cache.values())
        (table,) = scheme._hashes._id_tables.values()
        assert table.width == 2
        assert table.rows.shape[1] == 2

    def test_rescale_flushes_cached_tuples(self):
        scheme = FixedDHead(num_workers=16, num_choices=4, warmup_messages=0)
        for _ in range(500):
            scheme.route("hot")
        scheme.route_batch(["hot"] * 64)
        assert scheme._head_cand_cache
        scheme.rescale(9)
        assert not scheme._head_cand_cache  # old tuples point at old workers
        scheme.route_batch(["hot"] * 64)
        for candidates in scheme._head_cand_cache.values():
            assert all(0 <= worker < 9 for worker in candidates)

    def test_reset_flushes_cached_tuples(self):
        scheme = FixedDHead(num_workers=16, num_choices=4, warmup_messages=0)
        for _ in range(500):
            scheme.route("hot")
        scheme.route_batch(["hot"] * 64)
        assert scheme._head_cand_cache
        scheme.reset()
        assert not scheme._head_cand_cache

    def test_solver_d_change_flushes_lazily(self):
        scheme = DChoices(num_workers=8, warmup_messages=0)
        # The cache is keyed by key id (the partitioner's one namespace).
        stale, fresh = scheme._dictionary().intern_keys(["stale", "fresh"]).tolist()
        scheme._head_cand_cache_d = 3
        scheme._head_cand_cache[stale] = (0, 1, 2)
        assert scheme._cached_head_candidates(fresh, 5) is not None
        assert stale not in scheme._head_cand_cache
        assert scheme._head_cand_cache_d == 5
