"""Shared machinery for head/tail-split partitioners (Algorithm 1).

D-Choices, W-Choices and Round-Robin all follow the same skeleton:

1. feed every incoming key to a local SpaceSaving instance
   (``UPDATESPACESAVING``);
2. decide whether the key currently belongs to the head
   (estimated relative frequency >= theta);
3. head keys are placed with a scheme-specific wide strategy, tail keys with
   the standard two choices of PKG.

:class:`HeadTailPartitioner` implements steps 1-2 and the tail path, leaving
the head path to subclasses via :meth:`_select_head_worker`.
"""

from __future__ import annotations

import abc
import math
from itertools import chain
from typing import Sequence

import numpy as np

from repro.analysis.bounds import theta_range
from repro.exceptions import ConfigurationError
from repro.fifo_map import FifoMap
from repro.hashing.hash_family import HashFamily
from repro.partitioning.base import Partitioner
from repro.sketches.space_saving import SpaceSaving, runs_to_flags
from repro.types import Key, WorkerId

#: How many counters the per-source SpaceSaving keeps relative to ``1/theta``.
#: 1.0 is the minimum that guarantees no false negatives; a little slack
#: sharpens the estimates at negligible memory cost (the sketch stays O(n)).
#: Every sizing — construction, growth on a join, adoption — uses it.
DEFAULT_SKETCH_SLACK = 2.0

#: How many values of the effective ``d`` a sender keeps head candidate
#: tuples and floors for; FIFO-evicted beyond this.  The solver wobbles
#: among neighbouring values as the head drifts (a ``sim_hot`` sender visits
#: 8), and coming back to one re-derives nothing.
_HEAD_D_LIMIT = 8


class HeadTailPartitioner(Partitioner):
    """Base class for schemes that treat heavy hitters specially.

    Parameters
    ----------
    num_workers:
        Number of downstream workers ``n``.
    theta:
        Head threshold; defaults to the paper's ``1/(5n)``.
    seed:
        Hashing seed shared by all sources.
    warmup_messages:
        Number of initial messages routed purely with the tail (PKG) path
        before the sketch estimates are trusted.  Avoids declaring the very
        first keys heavy hitters on tiny samples.
    """

    def __init__(
        self,
        num_workers: int,
        theta: float | None = None,
        seed: int = 0,
        warmup_messages: int = 100,
    ) -> None:
        super().__init__(num_workers, seed)
        # A defaulted theta tracks the worker count (1/(5n)), so a rescale
        # re-derives it; an explicit theta is the caller's to keep.
        self._theta_defaulted = theta is None
        if theta is None:
            theta = theta_range(num_workers).default
        if not 0.0 < theta <= 1.0:
            raise ConfigurationError(f"theta must be in (0, 1], got {theta}")
        if warmup_messages < 0:
            raise ConfigurationError(
                f"warmup_messages must be >= 0, got {warmup_messages}"
            )
        self._theta = theta
        self._warmup_messages = warmup_messages
        # The sender-local head table: every partitioner owns its sketch.
        self._sketch = SpaceSaving.for_threshold(theta, slack=DEFAULT_SKETCH_SLACK)
        # Hash functions: the tail uses the first two; head schemes may use
        # up to n of them, so allocate the full family once (never fewer than
        # two functions — the tail path always asks for two candidates, even
        # on a single-worker deployment).
        self._hashes = HashFamily(
            num_functions=max(2, num_workers), num_buckets=num_workers, seed=seed
        )
        # What the "d" head path remembers per head key id (head keys repeat
        # by definition) beside the raw hash tuples the dictionary keeps for
        # every sender (HashFamily.candidates_for_ids); both are this
        # sender's own, kept per effective d for the last _HEAD_D_LIMIT
        # values of d (_head_by_d), and each bounded by
        # _HEAD_CANDIDATE_CACHE_LIMIT:
        # * the deduplicated candidate tuple for that d, derived from the
        #   key's raw hash tuple;
        # * the floor of that tuple: the least load the key's last complete
        #   scan saw.  Loads only grow, so it bounds every later scan from
        #   below and lets it stop at the first candidate sitting on it.
        # _head_cand_cache / _head_floors are the pair of the current d.
        self._head_by_d: FifoMap[
            int, tuple[FifoMap[int, tuple[WorkerId, ...]], dict[int, int]]
        ] = FifoMap(_HEAD_D_LIMIT)
        self._flush_head_caches()

    # ------------------------------------------------------------------ #
    # public knobs / introspection
    # ------------------------------------------------------------------ #
    @property
    def theta(self) -> float:
        return self._theta

    @property
    def sketch(self) -> SpaceSaving:
        return self._sketch

    def current_head(self) -> dict[Key, int]:
        """The sketch's current estimate of the head (key -> estimated count).

        The sketch tracks key ids; the result is decoded back to keys so
        callers always see the key namespace.
        """
        head = self._sketch.heavy_hitters(self._theta)
        if not head:
            return {}
        key_of = self._id_dict.key_of
        return {key_of(kid): count for kid, count in head.items()}

    def is_head(self, key: Key) -> bool:
        """Whether ``key`` currently qualifies as a heavy hitter.

        Pure: a key the dictionary has never seen is not interned, it simply
        is not head.
        """
        if self._id_dict is None:
            return False
        kid = self._id_dict.lookup(key)
        return kid is not None and self._is_head_id(kid)

    def _is_head_id(self, kid: int) -> bool:
        # Membership uses the sketch estimate directly (estimate >= theta *
        # total), so the check is O(1) — no need to materialise the whole
        # head on every message.
        sketch = self._sketch
        total = sketch.total
        return total >= self._warmup_messages and (
            sketch.estimate(kid) >= self._theta * total
        )

    # ------------------------------------------------------------------ #
    # Partitioner implementation
    # ------------------------------------------------------------------ #
    #: Maximum number of head key ids the candidate tuples (and so their
    #: floors) cover; FIFO-evicted beyond this.  Head keys are few by
    #: definition (at most the sketch capacity at any instant), so the
    #: bound only matters on long runs with drifting heads.
    _HEAD_CANDIDATE_CACHE_LIMIT = 1 << 14

    def _select_worker(self, key: Key) -> WorkerId:
        """Algorithm 1 for one message: sketch update, head test (the
        :meth:`_is_head_id` test, inlined), then the scheme's head placement
        or the tail's two choices."""
        kid = self._dictionary().intern(key)
        sketch = self._sketch
        sketch.add(kid)
        total = sketch.total
        if total >= self._warmup_messages and (
            sketch.estimate(kid) >= self._theta * total
        ):
            self._routed_head = True
            return self._select_head_worker(kid)
        self._routed_head = False
        first, second = self._hashes.candidates(key, 2)
        loads = self._state.loads
        return first if loads[first] <= loads[second] else second

    def _route_ids(self, ids):
        """Batched Algorithm 1: classify the chunk in bulk, then route runs.

        One bulk sketch pass classifies every message
        (``add_and_classify_runs``), then the selection pass gathers the
        tail keys' candidate pairs from the per-id table and places head
        keys with a scheme-specific run strategy (see
        :meth:`_head_selection`).  Everything the selection pass reads — the
        load vector, scheme-internal cursors — evolves exactly as it would
        one message at a time, so the worker sequence is byte-identical to
        sequential :meth:`route` calls.

        The whole chunk is fed to the sketch *before* any head key is
        placed, so a head path may not read the sketch or the message
        counter; a scheme whose head path does (D-Choices' solver throttle)
        overrides this method and splits the sketch feed at its own
        checkpoints.
        """
        kids = ids.tolist()
        tail_kids: list[int] = []
        runs = self._classify_runs(kids, tail_kids)
        out: list[WorkerId] = []
        self._route_runs(kids, runs, tail_kids, self._head_selection(), out)
        self._state.messages_routed += len(out)
        return np.fromiter(out, np.int64, len(out)), runs_to_flags(runs)

    # ------------------------------------------------------------------ #
    # classified batch pipeline
    # ------------------------------------------------------------------ #
    def _classify_runs(
        self, keys: Sequence[Key], tail_out: list[Key]
    ) -> list[int]:
        """Run-length classification of a chunk (see ``add_and_classify_runs``).

        Returns the head-run lengths around each tail message and fills
        ``tail_out`` with the tail keys, all in one sketch pass.
        """
        return self._sketch.add_and_classify_runs(
            keys, self._theta, self._warmup_messages, tail_out
        )

    def _route_runs(
        self,
        kids: Sequence[int],
        runs: Sequence[int],
        tail_kids: Sequence[int],
        selection: tuple[str, int],
        out: list[WorkerId],
    ) -> None:
        """Route a run-length-classified chunk of key ids, appending to ``out``.

        The chunk arrives pre-split into alternating head runs and tail
        messages (``runs[i]`` heads, then ``tail_kids[i]``, ...; the last
        entry of ``runs`` is the trailing head run).  Tail placements walk
        the gathered candidate columns; head runs are placed the way
        ``selection`` — a :meth:`_head_selection` value — says: they count
        down with no per-message flag or id touch in "all" mode —
        full-freedom placement needs nothing but the load vector, searched
        with ``min`` / ``count`` once per load level and ``index`` once per
        message — while "d" and "call" modes track the stream position to
        recover the head ids from ``kids``.  ``messages_routed`` is the caller's to update.
        """
        loads = self._state.loads
        append = out.append
        if len(kids) <= 24:
            # Short fragment (single-message chunks, what D-Choices placed
            # under one d before the solver moved it): the fixed setup of
            # the vectorized path — the numpy round trip of the tail gather —
            # costs more than routing the handful of messages against the
            # scalar helpers.
            self._route_runs_scalar(kids, runs, tail_kids, selection, out)
            return
        if tail_kids:
            firsts, seconds = self._hashes.id_candidate_columns(
                np.asarray(tail_kids, dtype=np.int64), self._id_dict, 2
            )
        else:
            firsts = seconds = ()
        # One sentinel pair past the real tails pairs the trailing head run
        # with the same loop body; len(runs) == len(tail_kids) + 1, so zip
        # consumes exactly the sentinel for the final entry.
        paired = zip(runs, chain(firsts, (None,)), chain(seconds, (None,)))
        mode, num_choices = selection
        if mode == "all":
            # ``left`` workers still sit on the minimum ``level``, none of
            # them before ``position``: loads only grow, so the first one
            # ``index`` finds from there is the first-index minimum the
            # scalar ``loads.index(min(loads))`` picks.  A tail message that
            # lifts a worker off the level takes it out of ``left``.
            level = min(loads)
            left = loads.count(level)
            position = 0
            index = loads.index
            for run, first, second in paired:
                while run:
                    run -= 1
                    if not left:
                        level = min(loads)
                        left = loads.count(level)
                        position = 0
                    position = index(level, position)
                    loads[position] = level + 1
                    left -= 1
                    append(position)
                if first is None:
                    break
                worker = first if loads[first] <= loads[second] else second
                load = loads[worker]
                if load == level:
                    left -= 1
                loads[worker] = load + 1
                append(worker)
        elif mode == "d":
            # The d handshake runs once up front so the hot path may read
            # the cache directly; a miss derives the tuples of every
            # uncached id left in the head run at once
            # (_derive_head_candidates, the single home of the derivation).
            num_choices = max(2, min(num_choices, self.num_workers))
            if num_choices != self._head_cand_cache_d:
                self._use_head_d(num_choices)
            cache_get = self._head_cand_cache.get
            derive = self._derive_head_candidates
            floors = self._head_floors
            stream_at = 0
            for run, first, second in paired:
                while run:
                    run -= 1
                    kid = kids[stream_at]
                    stream_at += 1
                    candidates = cache_get(kid)
                    if candidates is None:
                        candidates = derive(
                            kid, kids[stream_at : stream_at + run], num_choices
                        )
                    # First minimum of the candidates' loads, as
                    # _least_loaded finds it — but no candidate is below the
                    # key's floor, so the first one that brings the running
                    # best down *to* it is the answer: those before it were
                    # above, those after it can at most tie and lose.  Only
                    # a scan that runs to the end has seen the true minimum,
                    # and raises the floor to it.  (The first candidate is
                    # never on the floor: it wins every tie, so the complete
                    # scan that set the floor either found it above or
                    # bumped it.)
                    floor = floors[kid]
                    scan = iter(candidates)
                    worker = next(scan)
                    best_load = loads[worker]
                    for candidate in scan:
                        load = loads[candidate]
                        if load < best_load:
                            worker = candidate
                            best_load = load
                            if load == floor:
                                break
                    else:
                        floors[kid] = best_load
                    loads[worker] = best_load + 1
                    append(worker)
                if first is None:
                    break
                stream_at += 1
                worker = first if loads[first] <= loads[second] else second
                loads[worker] += 1
                append(worker)
        else:
            select_head = self._select_head_worker
            stream_at = 0
            for run, first, second in paired:
                while run:
                    run -= 1
                    worker = select_head(kids[stream_at])
                    stream_at += 1
                    loads[worker] += 1
                    append(worker)
                if first is None:
                    break
                stream_at += 1
                worker = first if loads[first] <= loads[second] else second
                loads[worker] += 1
                append(worker)

    def _route_runs_scalar(
        self,
        kids: Sequence[int],
        runs: Sequence[int],
        tail_kids: Sequence[int],
        selection: tuple[str, int],
        out: list[WorkerId],
    ) -> None:
        """Scalar fallback of :meth:`_route_runs` for short fragments.

        It reads no floor and raises none: the loads it bumps only grow, so
        the floors stay valid lower bounds.
        """
        loads = self._state.loads
        append = out.append
        pairs = self._tail_pairs(tail_kids)
        mode, num_choices = selection
        run_iter = iter(runs)
        run = next(run_iter)
        for kid in kids:
            if run:
                run -= 1
                if mode == "all":
                    worker = loads.index(min(loads))
                elif mode == "d":
                    worker = self._least_loaded(
                        self._cached_head_candidates(kid, num_choices)
                    )
                else:
                    worker = self._select_head_worker(kid)
            else:
                run = next(run_iter)
                first, second = next(pairs)
                worker = first if loads[first] <= loads[second] else second
            loads[worker] += 1
            append(worker)

    def _tail_pairs(self, tail_kids: Sequence[int]):
        """Iterator over the two-choice candidate pairs of ``tail_kids``."""
        if not tail_kids:
            return iter(())
        return zip(
            *self._hashes.id_candidate_columns(
                np.asarray(tail_kids, dtype=np.int64), self._id_dict, 2
            )
        )

    def _head_selection(self) -> tuple[str, int]:
        """How the classified pipeline should place head keys right now.

        ``("all", 0)`` — least-loaded of all workers (W-Choices and the
        D-Choices degradation), placed by C scans of the load vector;
        ``("d", d)`` — least-loaded of ``d`` hash-derived candidates, served
        by the head candidate cache; ``("call", 0)`` — per-message
        :meth:`_select_head_worker`, for head paths with scheme-internal
        state (Round-Robin's cursor).  :meth:`_route_runs` is handed the
        value rather than reading it, so a scheme whose answer is dynamic
        (D-Choices after a solver refresh) decides which messages are placed
        under which answer.
        """
        return ("call", 0)

    def _cached_head_candidates(self, kid: int, num_choices: int) -> tuple[WorkerId, ...]:
        """The head candidate set of key id ``kid``, interned per (id, d).

        Same clamping as :meth:`_head_candidates`, but the cached tuple is
        *deduplicated* (first occurrence kept, order preserved): a repeated
        candidate can never win a least-loaded scan — the first occurrence
        already set ``best_load`` at most that low and the comparison is
        strict — so dropping it changes nothing while shortening every
        subsequent scan (d hash draws over n workers repeat themselves with
        noticeable probability once d is a fair fraction of n).  The scalar
        oracle, short fragments and FIXED-D's per-message head path come
        here; see :meth:`_derive_head_candidates` for a miss.
        """
        num_choices = max(2, min(num_choices, self.num_workers))
        if num_choices != self._head_cand_cache_d:
            self._use_head_d(num_choices)
        candidates = self._head_cand_cache.get(kid)
        if candidates is None:
            candidates = self._derive_head_candidates(kid, (), num_choices)
        return candidates

    def _derive_head_candidates(
        self, kid: int, rest: Sequence[int], num_choices: int
    ) -> tuple[WorkerId, ...]:
        """Cache the candidate tuples of ``kid`` and of ``rest``'s uncached ids.

        ``kid`` missed the cache of the current ``num_choices``; ``rest`` is
        what is left of its head run, whose other new keys would miss next.
        They are derived together from their raw hash tuples, which the
        dictionary keeps for every sender of the group
        (:meth:`HashFamily.candidates_for_ids`; the per-id candidate table
        stays two columns wide however large d grows) and only ever
        *extends*: hash tuples are prefix-stable in d, so only functions no
        sender asked a key for are hashed, all in one call.  Each new tuple
        starts with a floor below every load.  At most the cache's bound is
        derived, ``kid`` first, so no insertion here evicts ``kid``.
        """
        cache = self._head_cand_cache
        floors = self._head_floors
        fresh = [other for other in dict.fromkeys(chain((kid,), rest)) if other not in cache]
        del fresh[self._HEAD_CANDIDATE_CACHE_LIMIT :]
        derived = [
            tuple(dict.fromkeys(row))
            for row in self._hashes.candidates_for_ids(fresh, self._id_dict, num_choices)
        ]
        for other, candidates in zip(fresh, derived):
            evicted = cache.insert(other, candidates)
            if evicted is not None:
                del floors[evicted]
            # Below every load: the key's first scan runs to the end.
            floors[other] = -1
        return derived[0]

    def _use_head_d(self, num_choices: int) -> None:
        """Make ``num_choices`` the effective d of the head path.

        Its candidate tuples and floors are the ones kept from its last
        visit, or start empty; the solver moves d back and forth among
        neighbouring values as the head drifts, and a value it returns to
        re-derives nothing.  The floors kept meanwhile stay lower bounds:
        the loads only grew while another d was in use.
        """
        kept = self._head_by_d.get(num_choices)
        if kept is None:
            kept = (FifoMap(self._HEAD_CANDIDATE_CACHE_LIMIT), {})
            self._head_by_d.insert(num_choices, kept)
        self._head_cand_cache, self._head_floors = kept
        self._head_cand_cache_d = num_choices

    def _flush_head_caches(self) -> None:
        """The one flush point of everything the head path keys by id.

        The tuples and floors of every d go, and no d is effective until
        the next head key asks for one.  Only the ground moving calls for
        it: ``reset`` (the id namespace is gone, the loads are zero again),
        a rescale (the hash family was rebuilt, so every tuple points at
        pre-rescale workers, and the load vector was cut or padded) or an
        adopted state (somebody else's loads, which our floors say nothing
        about).  The raw hash tuples are the dictionary's, keyed by hash
        identity, and depend on none of these.
        """
        self._head_by_d.clear()
        self._head_cand_cache: FifoMap[int, tuple[WorkerId, ...]] = FifoMap(
            self._HEAD_CANDIDATE_CACHE_LIMIT
        )
        self._head_floors: dict[int, int] = {}
        self._head_cand_cache_d = 0

    @abc.abstractmethod
    def _select_head_worker(self, kid: int) -> WorkerId:
        """Head placement of key id ``kid`` (no load bookkeeping).

        Shared by the scalar :meth:`_select_worker` and the kernel's "call"
        mode.  It reads the key only through its id: the load vector alone
        (W-Choices, Round-Robin) or the head candidate cache (D-Choices,
        FIXED-D).
        """

    def reset(self) -> None:
        super().reset()
        self._sketch.reset()
        self._flush_head_caches()

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        """Incremental rescale: new hash family, *preserved* head table.

        The hash functions are modulo the worker count, so tail candidate
        pairs are redrawn; the SpaceSaving sketch, however, is sender-local
        frequency knowledge that survives a topology change unchanged —
        throwing it away would force every scheme back through the warmup
        before heavy hitters are treated specially again.  A defaulted
        theta is re-derived for the new worker count.  Shrinks only raise
        theta, so the original capacity keeps upper-bounding the head; a
        *join*, however, lowers theta (1/(5n) falls as n grows), and once
        ``1/theta_new`` exceeds the sketch's capacity the no-false-negative
        guarantee breaks — a true heavy hitter could be evicted and silently
        routed down the tail path.  The sketch is therefore grown in place
        (monitored counters preserved) whenever the re-derived theta needs
        more counters than it was provisioned with.
        """
        if self._theta_defaulted:
            self._theta = theta_range(new_num_workers).default
            self._ensure_sketch_capacity()
        self._hashes = HashFamily(
            num_functions=max(2, new_num_workers),
            num_buckets=new_num_workers,
            seed=self.seed,
        )
        # The dictionary binding survives: the sketch still holds its ids.
        # The new family reads the dictionary's rows of the new n.
        self._flush_head_caches()

    def _required_capacity(self) -> int:
        """The counters the current theta needs (what ``for_threshold`` sizes)."""
        return max(1, math.ceil(DEFAULT_SKETCH_SLACK / self._theta))

    def _ensure_sketch_capacity(self) -> None:
        """Grow the sketch when the current theta needs more counters.

        Growth preserves every monitored count, so the head table survives.
        """
        required = self._required_capacity()
        if self._sketch.capacity < required:
            self._sketch.grow(required)

    def _export_structures(self, state: dict) -> None:
        state["theta"] = self._theta
        state["warmup_messages"] = self._warmup_messages
        state["sketch"] = self._sketch.export_state()
        # The candidate cache is a pure derivation, but re-deriving it is
        # the only cost a switch pays per hot key — carry it along, tagged
        # with the hashing identity it was derived under.
        state["head_cand_cache"] = (dict(self._head_cand_cache), self._head_cand_cache_d)

    def _adopt_structures(self, state) -> None:
        sketch_state = state.get("sketch")
        if sketch_state is not None:
            # Re-seed the head table from the donor instead of cold-starting:
            # the monitored counters, their summary order and the stream
            # total all carry over, so warmup is already behind us and the
            # head is hot from the first adopted message.  The capacity is
            # at least what *this* scheme's theta requires — an adopter with
            # a smaller theta gets the extra counters its guarantee needs.
            capacity = max(self._required_capacity(), int(sketch_state["capacity"]))
            self._sketch = SpaceSaving.from_state(sketch_state, capacity=capacity)
        self._flush_head_caches()
        if state.get("seed") == self._seed and state.get("num_workers") == self._num_workers:
            # Same hash family: the donor's candidate tuples are ours too.
            # Its floors are not — they are never exported — so every
            # adopted key starts with a complete scan of the adopted loads.
            cache, cache_d = state.get("head_cand_cache", ({}, 0))
            if cache_d:
                self._use_head_d(cache_d)
                for kid, candidates in cache.items():
                    self._head_cand_cache.insert(kid, candidates)
                self._head_floors.update(dict.fromkeys(self._head_cand_cache, -1))

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        """Pure candidate set: head keys via the scheme's head placement,
        tail keys via the two PKG choices (no sketch mutation)."""
        if self.is_head(key):
            return self._head_key_candidates(key)
        return self._hashes.candidates(key, 2)

    def _head_key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        """Pure head candidate set; default is full placement freedom
        (W-Choices, Round-Robin), schemes with bounded heads override."""
        return tuple(range(self.num_workers))

    # helper for subclasses that need the candidate tuple of d hashes
    def _head_candidates(self, key: Key, num_choices: int) -> tuple[WorkerId, ...]:
        num_choices = max(2, min(num_choices, self.num_workers))
        return self._hashes.candidates(key, num_choices)
