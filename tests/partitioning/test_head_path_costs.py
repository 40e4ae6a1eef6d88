"""What the "d" head path pays for, and why it may skip the rest.

D-Choices keeps three things per head key — the raw hash prefix, the
deduplicated candidate tuple for the effective ``d``, and the *floor* of that
tuple — and places a chunk in as few ``_route_runs`` calls as the solver's
answer allows.  Two kinds of pins:

* **structural guards** count the work itself (placement calls, hash rounds,
  load-vector reads) on a ``sim_hot``-shaped stream and state each bound as a
  relation between counted quantities, so a regression shows up as a broken
  inequality rather than as a slower benchmark;
* **floor soundness** drives every way the load vector can change under a
  warm floor — the three entry points interleaved, rescales under each
  policy, state handoffs into fresh and into warm instances, ``reset``, an
  adaptive switch into and out of D-C in the middle of a chunk — and holds
  the ``(worker, is_head)`` stream and the loads to the scalar oracle's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.choices import ChoicesSolution
from repro.elasticity.policies import POLICY_NAMES, get_policy
from repro.hashing.hash_family import HashFamily
from repro.partitioning.head_tail import HeadTailPartitioner
from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

CHUNK = 4_096


def _hot_batches(messages: int = 24_000, seed: int = 2016):
    """The ``sim_hot`` stream (Zipf 1.4 over 10k keys), as one sender's chunks."""
    workload = ZipfWorkload(1.4, 10_000, messages, seed=seed)
    return list(workload.iter_batches_columnar(CHUNK))


class CountingLoads(list):
    """A load vector that counts its subscript reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return list.__getitem__(self, index)


# ---------------------------------------------------------------------- #
# (a) structural guards
# ---------------------------------------------------------------------- #
class TestPlacementCalls:
    @pytest.mark.parametrize("seed", [2016, 31])
    def test_bounded_by_chunks_plus_selection_changes(self, seed):
        scheme = create_partitioner("D-C", num_workers=50)
        calls = checks = changes = 0
        route_runs, check = scheme._route_runs, scheme._maybe_recompute_at

        def counted_route_runs(*args):
            nonlocal calls
            calls += 1
            return route_runs(*args)

        def counted_check(routed):
            nonlocal checks, changes
            before = scheme._head_selection()
            check(routed)
            checks += 1
            changes += scheme._head_selection() != before

        scheme._route_runs = counted_route_runs
        scheme._maybe_recompute_at = counted_check
        batches = _hot_batches(seed=seed)
        for batch in batches:
            scheme.route_batch_columnar(batch)

        # One call closes each chunk, one more is spent wherever a check
        # moved d: never one per checkpoint.
        assert calls <= len(batches) + changes
        assert 2 <= changes < checks // 4, "d must move, but rarely: vacuous otherwise"


class TestHashRounds:
    """Each (key, function) pair is hashed once per hash family, however
    often the solver moves ``d`` back and forth over it."""

    @staticmethod
    def _count_rounds(monkeypatch) -> Counter:
        rounds: Counter = Counter()
        mix = HashFamily._mix

        def counted_mix(self, folded, d, start=0):
            # Keyed by the family object: a rescale builds a new one.
            rounds.update((self, folded, function) for function in range(start, d))
            return mix(self, folded, d, start)

        monkeypatch.setattr(HashFamily, "_mix", counted_mix)
        return rounds

    def test_solver_wobble_never_rehashes(self, monkeypatch):
        rounds = self._count_rounds(monkeypatch)
        scheme = create_partitioner("D-C", num_workers=50)
        tags: list[int] = []
        flush = scheme._flush_head_caches

        def recording_flush(num_choices=0):
            tags.append(num_choices)
            flush(num_choices)

        scheme._flush_head_caches = recording_flush
        for batch in _hot_batches():
            scheme.route_batch_columnar(batch)
        assert len(tags) > len(set(tags)) > 1, "d must come back to a value it left"
        assert set(rounds.values()) == {1}
        # Prefixes were extended, not rebuilt: some key was hashed in
        # instalments, and each holds exactly the functions 0 .. its widest d.
        widest = Counter()
        for _, folded, function in rounds:
            widest[folded] = max(widest[folded], function + 1)
        assert sum(widest.values()) == len(rounds)
        assert len(set(widest.values())) > 1

    def test_forced_up_down_up_sequence(self, monkeypatch):
        rounds = self._count_rounds(monkeypatch)
        # Throttle the solver out of the way and set d by hand.
        scheme = create_partitioner(
            "D-C", num_workers=50, check_interval=10**9, recompute_interval=10**9
        )
        batches = _hot_batches(5 * CHUNK)
        scheme.route_batch_columnar(batches[0])
        per_d = {}
        for batch, d in zip(batches[1:], (21, 22, 21, 22)):
            scheme._solution = ChoicesSolution(
                num_choices=d, use_w_choices=False, head_cardinality=1
            )
            before = sum(rounds.values())
            scheme.route_batch_columnar(batch)
            per_d.setdefault(d, []).append(sum(rounds.values()) - before)
            assert scheme._head_cand_cache_d == d
        assert set(rounds.values()) == {1}
        # The way back down hashes only keys that were not head before.
        assert per_d[21][1] < per_d[21][0] and per_d[22][1] < per_d[22][0]

    def test_rescale_starts_over(self, monkeypatch):
        rounds = self._count_rounds(monkeypatch)
        scheme = create_partitioner("FIXED-D", num_workers=50, num_choices=20)
        batches = _hot_batches(3 * CHUNK)
        scheme.route_batch_columnar(batches[0])
        scheme.rescale(40)
        scheme.route_batch_columnar(batches[1])
        assert set(rounds.values()) == {1}
        families = {family.num_buckets for family, _, _ in rounds}
        assert families == {50, 40}


class TestLoadReads:
    """The floor ends most scans early; a stale floor ends none."""

    @staticmethod
    def _routed(scheme, batch):
        """Route ``batch``; returns (scan reads, full-scan reads, heads)."""
        loads = scheme._state.loads = CountingLoads(scheme._state.loads)
        flags: list[bool] = []
        scheme.route_batch_columnar(batch, head_flags=flags)
        heads = [kid for kid, hot in zip(batch.ids.tolist(), flags) if hot]
        # A tail message reads its two candidates and its worker's counter;
        # a head message reads nothing but what its scan visits.
        scan_reads = loads.reads - 3 * (len(flags) - len(heads))
        full = sum(len(scheme._head_cand_cache[kid]) for kid in heads)
        scheme._state.loads = list(loads)
        return scan_reads, full, len(heads)

    def test_hot_stream_reads_fewer_loads_than_the_full_scan(self):
        scheme = create_partitioner("FIXED-D", num_workers=50, num_choices=20)
        batches = _hot_batches(3 * CHUNK)
        scheme.route_batch_columnar(batches[0])
        scan_reads, full, heads = self._routed(scheme, batches[1])
        assert heads > CHUNK // 2
        assert scan_reads < 0.8 * full

    def test_stale_floors_cost_exactly_the_full_scan(self):
        # Forty equally hot keys: every one is head at n = 50.
        scheme = create_partitioner("FIXED-D", num_workers=50, num_choices=20)
        dictionary = KeyDictionary()
        rng = random.Random(4)
        keys = [f"hot-{index}" for index in range(40)]
        warm = [rng.choice(keys) for _ in range(4_000)]
        scheme.route_batch_columnar(ColumnarBatch(dictionary.intern_keys(warm), dictionary, 0))

        once_each = ColumnarBatch(dictionary.intern_keys(keys), dictionary, 0)
        scan_reads, full, heads = self._routed(scheme, once_each)
        assert heads == 40
        assert scan_reads < full  # warm floors

        # A handoff keeps the tuples and forgets the floors: each key's
        # first scan afterwards has nothing to stop at.
        scheme.adopt_state(scheme.export_state())
        scan_reads, full, heads = self._routed(scheme, once_each)
        assert heads == 40
        assert scan_reads == full
        scan_reads, full, _ = self._routed(scheme, once_each)
        assert scan_reads < full

    def test_structures_are_bounded(self, monkeypatch):
        monkeypatch.setattr(HeadTailPartitioner, "_HEAD_CANDIDATE_CACHE_LIMIT", 8)
        scheme = create_partitioner("FIXED-D", num_workers=50, num_choices=20)
        for batch in _hot_batches(2 * CHUNK):
            scheme.route_batch_columnar(batch)
        assert len(scheme._head_cand_cache) == len(scheme._head_floors) == 8
        assert scheme._head_cand_cache.keys() == scheme._head_floors.keys()
        assert len(scheme._head_hashes) == 8


# ---------------------------------------------------------------------- #
# (b) floor soundness
# ---------------------------------------------------------------------- #
SCHEMES = {
    "D-C": {"check_interval": 40, "recompute_interval": 150},
    "FIXED-D": {"num_choices": 6},
}
NUM_WORKERS = 16
SEED = 3


def _build(scheme: str, num_workers: int):
    return create_partitioner(
        scheme, num_workers=num_workers, seed=SEED, warmup_messages=20, **SCHEMES[scheme]
    )


def _keys(rng: random.Random, count: int) -> list[str]:
    """A skewed draw over a small alphabet: several head keys, a real tail."""
    return [f"k{int(rng.paretovariate(1.1)) % 60}" for _ in range(count)]


ROUTES = st.tuples(
    st.sampled_from(["route", "route_batch", "route_batch_columnar"]),
    st.sampled_from([5, 30, 90, 400]),
)
EVENTS = st.one_of(
    st.tuples(st.just("rescale"), st.sampled_from(POLICY_NAMES), st.sampled_from([9, 16, 23])),
    st.tuples(st.just("fail"), st.sampled_from(["migrate", "remap"]), st.just(-1)),
    st.tuples(st.just("adopt"), st.sampled_from(["fresh", "warm"]), st.just(0)),
    st.tuples(st.just("reset"), st.just(""), st.just(0)),
)


class _Pair:
    """One partitioner driven through the plan's entry points, and its oracle."""

    def __init__(self, scheme: str) -> None:
        self.scheme = scheme
        self.kernel = _build(scheme, NUM_WORKERS)
        self.oracle = _build(scheme, NUM_WORKERS)
        self.dictionary = KeyDictionary()

    def route(self, entry: str, keys: list[str]) -> None:
        decisions = [self.oracle.route_with_decision(key) for key in keys]
        expected = [(decision.worker, decision.is_head) for decision in decisions]
        flags: list[bool] = []
        if entry == "route":
            routed = [self.kernel.route_with_decision(key) for key in keys]
            workers = [decision.worker for decision in routed]
            flags = [decision.is_head for decision in routed]
        elif entry == "route_batch":
            workers = self.kernel.route_batch(keys, head_flags=flags)
        else:
            batch = ColumnarBatch(self.dictionary.intern_keys(keys), self.dictionary, 0)
            workers = self.kernel.route_batch_columnar(batch, head_flags=flags)
        assert list(zip(workers, flags)) == expected
        assert self.kernel.local_loads == self.oracle.local_loads

    def rescale(self, policy: str, num_workers: int) -> None:
        if num_workers < 0:  # a failure takes one worker away
            num_workers = max(2, self.kernel.num_workers - 1)
        for partitioner in (self.kernel, self.oracle):
            get_policy(policy).apply(partitioner, num_workers)
        if policy == "rehash":
            self.dictionary = KeyDictionary()  # reset unbound the old one

    def adopt(self, how: str, rng: random.Random) -> None:
        # Only the kernel side changes hands: a same-scheme adoption is
        # byte-identical to never having exported, so the oracle plays on.
        adopter = _build(self.scheme, self.kernel.num_workers)
        if how == "warm":
            # Floors, tuples and prefixes of another stream, in another id
            # namespace, over other loads: none may survive the adoption.
            adopter.route_batch(_keys(rng, 300))
        adopter.adopt_state(self.kernel.export_state())
        self.kernel = adopter

    def reset(self) -> None:
        self.kernel.reset()
        self.oracle.reset()
        self.dictionary = KeyDictionary()


class TestFloorSoundness:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @settings(max_examples=40, deadline=None)
    @given(
        stream_seed=st.integers(0, 2**16),
        plan=st.lists(st.one_of(ROUTES, ROUTES, EVENTS), min_size=4, max_size=14),
    )
    def test_every_way_loads_change(self, scheme, stream_seed, plan):
        rng = random.Random(stream_seed)
        pair = _Pair(scheme)
        pair.route("route_batch_columnar", _keys(rng, 400))  # warm floors
        for step in plan:
            if len(step) == 2:
                entry, length = step
                pair.route(entry, _keys(rng, length))
            elif step[0] in ("rescale", "fail"):
                pair.rescale(step[1], step[2])
            elif step[0] == "adopt":
                pair.adopt(step[1], rng)
            else:
                pair.reset()
            # Whatever just happened, the kernel's next chunk scans against
            # floors that must still be lower bounds.
            pair.route("route_batch_columnar", _keys(rng, 120))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_floors_are_lower_bounds_at_every_chunk_end(self, scheme):
        rng = random.Random(11)
        partitioner = _build(scheme, NUM_WORKERS)
        warm = 0
        for _ in range(30):
            partitioner.route_batch(_keys(rng, 200))
            loads = partitioner.local_loads
            for kid, floor in partitioner._head_floors.items():
                assert floor <= min(loads[w] for w in partitioner._head_cand_cache[kid])
                warm += floor >= 0
        assert warm, "no floor was ever raised: vacuous"

    def test_adaptive_switch_into_and_out_of_d_choices_mid_chunk(self):
        # Uniform, then one scorching key, then uniform again: AD climbs to
        # D-C and comes back, with checkpoints that fall inside the chunks.
        rng = random.Random(5)

        def calm(count):
            return [f"c{rng.randrange(3_000)}" for _ in range(count)]

        hot = [
            "hot" if rng.random() < 0.8 else f"c{rng.randrange(3_000)}"
            for _ in range(6_000)
        ]
        stream = calm(3_000) + hot + calm(12_000)
        options = dict(
            num_workers=NUM_WORKERS, seed=SEED, check_interval=500,
            policy="ladder=PKG>D-C,enter_skew=3,exit_skew=20,dwell=1000",
        )
        oracle = create_partitioner("AD", **options)
        expected = [oracle.route_with_decision(key) for key in stream]
        moves = [(record.from_scheme, record.to_scheme) for record in oracle.switch_events()]
        assert ("PKG", "D-C") in moves and ("D-C", "PKG") in moves, moves

        kernel = create_partitioner("AD", **options)
        workers: list[int] = []
        flags: list[bool] = []
        for start in range(0, len(stream), 1_300):  # not a multiple of 500
            workers += kernel.route_batch(stream[start : start + 1_300], head_flags=flags)
        assert workers == [decision.worker for decision in expected]
        assert flags == [decision.is_head for decision in expected]
        assert kernel.local_loads == oracle.local_loads
        assert kernel.switch_events() == oracle.switch_events()


# ---------------------------------------------------------------------- #
# the solver check reads the sketch exactly as of the triggering message
# ---------------------------------------------------------------------- #
class TestChecksSeeTheTriggeringMessage:
    """Placement is deferred across checkpoints, the sketch feed is not: at
    every check, kernel and oracle must look at the same sketch."""

    # The default theta (1/(5n)) and an explicit, coarser one: a smaller
    # sketch that evicts on most misses and a head that churns across checks.
    @pytest.mark.parametrize(
        "options", [{}, {"theta": 0.2}], ids=["space-saving", "coarse-theta"]
    )
    def test_head_signature_and_total_at_every_check(self, options):
        def traced():
            partitioner = create_partitioner(
                "D-C", num_workers=20, seed=1, check_interval=60,
                recompute_interval=300, **options,
            )
            seen = []
            check = partitioner._maybe_recompute_at

            def recording_check(routed):
                view = partitioner.sketch.head_signature(partitioner.theta)
                seen.append((routed, partitioner.sketch.total, view))
                check(routed)

            partitioner._maybe_recompute_at = recording_check
            return partitioner, seen

        keys = [f"key-{rank}" for rank in ZipfWorkload(1.3, 400, 9_000, seed=8)]
        oracle, expected = traced()
        for key in keys:
            oracle.route(key)
        kernel, seen = traced()
        for start in range(0, len(keys), 1_111):
            kernel.route_batch(keys[start : start + 1_111])

        assert len(expected) > 50
        assert seen == expected
        assert kernel.current_solution() == oracle.current_solution()
        assert kernel.local_loads == oracle.local_loads
