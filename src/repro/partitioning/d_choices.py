"""D-Choices: head keys get the minimal sufficient number of choices ``d``.

The scheme follows Algorithm 1 of the paper with the D-CHOICES branch:

* every key updates the local SpaceSaving sketch;
* tail keys use the two PKG choices;
* head keys use ``d = FINDOPTIMALCHOICES()`` hash-derived candidates, where
  ``d`` is the smallest value satisfying the Proposition 4.1 constraints for
  the *currently estimated* head distribution;
* if the solver concludes that ``d >= n`` is needed, the key is placed on the
  least-loaded of all workers, i.e. the scheme degrades gracefully into
  W-Choices (as prescribed at the end of Section IV-A).

Solving for ``d`` on every message would be wasteful, so the solution is
cached and recomputed only when the estimated head changes materially (new
cardinality, new hottest-key frequency) or after ``recompute_interval``
messages — whichever comes first.  This is an implementation choice, not a
deviation: the solver input only changes when the sketch's view of the head
changes.

The same economy holds one level down: the solver re-solves far more often
than its answer moves, and everything the head path derives from ``d`` is
paid for when a ``d`` is first used, not when it is re-confirmed or
returned to.  The id kernel (:meth:`DChoices._route_ids`) stops the *sketch
feed* at every throttle checkpoint but places a chunk in one pass per
distinct ``d``; the per-key candidate tuples and scan floors of
:class:`~repro.partitioning.head_tail.HeadTailPartitioner` are kept per
``d`` for its last few values, and the hash rounds under them are shared
by every ``d``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.choices import DEFAULT_EPSILON, ChoicesSolution, find_optimal_choices
from repro.exceptions import ConfigurationError
from repro.partitioning.head_tail import HeadTailPartitioner
from repro.sketches.space_saving import runs_to_flags
from repro.types import Key, WorkerId


class DChoices(HeadTailPartitioner):
    """Head/tail split with an analytically minimal ``d`` for the head.

    Parameters
    ----------
    num_workers:
        Number of downstream workers ``n``.
    theta:
        Head threshold (default ``1/(5n)``).
    epsilon:
        Imbalance tolerance fed to the constraint solver (paper default
        ``1e-4``).
    recompute_interval:
        Upper bound on the number of routed messages between two solver
        runs.  The solution is also refreshed whenever the estimated head
        changes size or its hottest frequency moves by more than 10%.
    check_interval:
        How often (in routed messages) the head signature is re-examined at
        all.  Scanning the sketch on every hot-key message would dominate the
        routing cost, so the signature check itself is throttled; the
        default of 200 messages keeps the reaction to drift well below the
        paper's per-hour reporting granularity.

    Examples
    --------
    >>> dc = DChoices(num_workers=8, seed=1)
    >>> for _ in range(1000):
    ...     _ = dc.route("hot")        # a single extremely hot key
    >>> dc.current_num_choices() >= 2
    True
    """

    name = "D-C"

    def __init__(
        self,
        num_workers: int,
        theta: float | None = None,
        seed: int = 0,
        epsilon: float = DEFAULT_EPSILON,
        warmup_messages: int = 100,
        recompute_interval: int = 1000,
        check_interval: int = 200,
    ) -> None:
        super().__init__(
            num_workers,
            theta=theta,
            seed=seed,
            warmup_messages=warmup_messages,
        )
        if epsilon < 0.0:
            raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
        if recompute_interval < 1:
            raise ConfigurationError(
                f"recompute_interval must be >= 1, got {recompute_interval}"
            )
        if check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        self._epsilon = epsilon
        self._recompute_interval = recompute_interval
        self._check_interval = check_interval
        self._solution = ChoicesSolution(
            num_choices=2, use_w_choices=False, head_cardinality=0
        )
        self._messages_at_last_solve = 0
        self._messages_at_last_check = 0
        self._never_solved = True
        self._head_signature: tuple[int, float] = (0, 0.0)

    # ------------------------------------------------------------------ #
    # public introspection
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        return self._epsilon

    def current_num_choices(self) -> int:
        """The ``d`` currently applied to head keys."""
        return self._solution.num_choices

    def current_solution(self) -> ChoicesSolution:
        """The most recent output of the constraint solver."""
        return self._solution

    # ------------------------------------------------------------------ #
    # FINDOPTIMALCHOICES with caching
    # ------------------------------------------------------------------ #
    def _find_optimal_choices(self) -> ChoicesSolution:
        sketch = self._sketch
        total = sketch.total
        # The solver consumes the sorted count multiset only; head_counts
        # skips materialising the key -> count mapping of current_head().
        head_counts = sorted(sketch.head_counts(self._theta), reverse=True)
        if not head_counts or total == 0:
            return ChoicesSolution(
                num_choices=2, use_w_choices=False, head_cardinality=0
            )
        head = [count / total for count in head_counts]
        tail_mass = max(0.0, 1.0 - math.fsum(head))
        return find_optimal_choices(
            head, tail_mass, self.num_workers, self._epsilon
        )

    def _maybe_recompute(self) -> None:
        # Scanning the sketch is O(capacity); doing it for every hot-key
        # message would dominate routing, so throttle the check itself.
        # (_state is read directly: this runs per head message and the
        # messages_routed property call is measurable at that rate.)
        routed = self._state.messages_routed
        if (
            not self._never_solved
            and routed - self._messages_at_last_check < self._check_interval
        ):
            return
        self._maybe_recompute_at(routed)

    def _maybe_recompute_at(self, routed: int) -> None:
        """Run one (unthrottled) solver check as of message count ``routed``.

        Callers guarantee eligibility: either the solver has never run or at
        least ``check_interval`` messages passed since the last check.  The
        id kernel calls this directly at chunk-internal checkpoints with the
        sketch parked at exactly the triggering message, so the signature
        read here is the one the scalar path would have seen.  It reads the
        sketch and ``routed`` and nothing else — in particular not the load
        vector, which is what lets the kernel run it before the messages
        ahead of the checkpoint have been placed.

        The signature itself comes from ``sketch.head_signature`` — the
        (cardinality, hottest count) pair — rather than materialising the
        full ``current_head()`` mapping just to take its len and max.
        """
        self._messages_at_last_check = routed
        sketch = self._sketch
        cardinality, hottest_count = sketch.head_signature(self._theta)
        total = max(1, sketch.total)
        hottest = hottest_count / total if cardinality else 0.0
        signature = (cardinality, hottest)
        stale_by_count = (
            routed - self._messages_at_last_solve >= self._recompute_interval
        )
        head_changed = (
            signature[0] != self._head_signature[0]
            or abs(signature[1] - self._head_signature[1])
            > 0.1 * max(self._head_signature[1], 1e-12)
        )
        if self._never_solved or stale_by_count or head_changed:
            self._solution = self._find_optimal_choices()
            self._messages_at_last_solve = routed
            self._head_signature = signature
            self._never_solved = False

    # ------------------------------------------------------------------ #
    # head path
    # ------------------------------------------------------------------ #
    def _select_head_worker(self, kid: int) -> WorkerId:
        # Candidate tuples for hot keys come from the per-head-key cache, so
        # the per-message cost is a dict hit plus the load scan.
        self._maybe_recompute()
        loads = self._state.loads
        if self._solution.use_w_choices:
            return loads.index(min(loads))
        return self._least_loaded(
            self._cached_head_candidates(kid, max(2, self._solution.num_choices))
        )

    def _head_selection(self) -> tuple[str, int]:
        solution = self._solution
        if solution.use_w_choices:
            return ("all", 0)
        return ("d", max(2, solution.num_choices))

    def _route_ids(self, ids):
        """Batched D-Choices: checkpoints split classification, not placement.

        The head path reads the sketch and the message counter through the
        solver throttle, so the chunk cannot simply be classified in one
        pre-feeding pass — a mid-chunk check would observe keys from its own
        future.  But checkpoint positions are *predictable*: a check can
        only fire at a head message once ``check_interval`` messages have
        passed since the last check (or while the solver has never run).
        Classification therefore alternates between

        * one bulk sketch pass up to the next possible checkpoint — every
          head message in it is throttle-ineligible; and
        * from the checkpoint on, one message at a time until the first
          head-classified one: the check runs with the sketch parked there
          (byte-identical signature and solve), then the bulk pass resumes.

        Placement does not have to keep step.  A check never reads the load
        vector (see :meth:`_maybe_recompute_at`), so classified messages
        simply accumulate — runs and tail ids, the shape
        :meth:`_route_runs` takes — and are placed in one call when a check
        actually moved the head selection (everything before the triggering
        message goes under the old one) and when the chunk ends.  The solver
        re-solves far more often than its answer changes, so that is a few
        calls per chunk however many checkpoints it holds.

        The message counter only needs to be *read* at checkpoints, so it is
        reconstructed arithmetically instead of stored per message.  The
        placements of every call land in one worker list, and their runs in
        one run list, so the chunk converts to columns once.
        """
        kids = ids.tolist()
        total_messages = len(kids)
        state = self._state
        routed_before = state.messages_routed
        check_interval = self._check_interval
        sketch = self._sketch
        theta = self._theta
        warmup = self._warmup_messages
        add_and_estimate = sketch.add_and_estimate
        out: list[WorkerId] = []
        # kids[placed:position] are classified into runs / tail_kids and wait
        # to be placed under `selection`.
        selection = self._head_selection()
        runs = [0]
        chunk_runs = [0]
        tail_kids: list[int] = []
        placed = 0
        position = 0
        while position < total_messages:
            if self._never_solved:
                checkpoint = position
            else:
                checkpoint = max(
                    position,
                    self._messages_at_last_check + check_interval - routed_before,
                )
            if checkpoint > position:
                stop = min(checkpoint, total_messages)
                block = self._classify_runs(kids[position:stop], tail_kids)
                runs[-1] += block[0]
                runs += block[1:]
                position = stop
            # From here the first head message fires the check.
            total = sketch.total
            for position in range(position, total_messages):
                kid = kids[position]
                estimate = add_and_estimate(kid)
                total += 1
                if total >= warmup and estimate >= theta * total:
                    self._maybe_recompute_at(routed_before + position)
                    refreshed = self._head_selection()
                    if refreshed != selection:
                        self._route_runs(
                            kids[placed:position], runs, tail_kids, selection, out
                        )
                        chunk_runs[-1] += runs[0]
                        chunk_runs += runs[1:]
                        selection = refreshed
                        runs = [0]
                        tail_kids = []
                        placed = position
                    runs[-1] += 1
                    position += 1
                    break
                runs.append(0)
                tail_kids.append(kid)
            else:
                position = total_messages
        self._route_runs(kids[placed:], runs, tail_kids, selection, out)
        chunk_runs[-1] += runs[0]
        chunk_runs += runs[1:]
        state.messages_routed = routed_before + total_messages
        return np.fromiter(out, np.int64, total_messages), runs_to_flags(chunk_runs)

    def reset(self) -> None:
        super().reset()
        self._solution = ChoicesSolution(
            num_choices=2, use_w_choices=False, head_cardinality=0
        )
        self._messages_at_last_solve = 0
        self._messages_at_last_check = 0
        self._never_solved = True
        self._head_signature = (0, 0.0)

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        super()._rescale_structures(old_num_workers, new_num_workers)
        # The cached solution was solved for the old n (and possibly the old
        # defaulted theta); force a fresh solve at the next head message.
        self._never_solved = True

    def _export_structures(self, state: dict) -> None:
        super()._export_structures(state)
        # ChoicesSolution is frozen, the signature a plain tuple: sharing
        # them with the adopter is safe.
        state["d_choices"] = {
            "solution": self._solution,
            "messages_at_last_solve": self._messages_at_last_solve,
            "messages_at_last_check": self._messages_at_last_check,
            "never_solved": self._never_solved,
            "head_signature": self._head_signature,
        }

    def _adopt_structures(self, state) -> None:
        super()._adopt_structures(state)
        solver = state.get("d_choices")
        if solver is not None:
            self._solution = solver["solution"]
            self._messages_at_last_solve = solver["messages_at_last_solve"]
            self._messages_at_last_check = solver["messages_at_last_check"]
            self._never_solved = solver["never_solved"]
            self._head_signature = solver["head_signature"]
        else:
            # Donor had no solver: solve at the first head message, with the
            # throttle counters anchored to the adopted message count.
            self._never_solved = True
            self._messages_at_last_solve = self._state.messages_routed
            self._messages_at_last_check = self._state.messages_routed

    def _head_key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        if self._solution.use_w_choices:
            return tuple(range(self.num_workers))
        return self._head_candidates(key, max(2, self._solution.num_choices))
