"""Choosing ``d`` for D-Choices (Proposition 4.1 and FINDOPTIMALCHOICES).

The optimisation problem of Section IV-A is::

    minimize   d * |H|
    subject to E[I(m)] <= epsilon

Proposition 4.1 turns the constraint into a family of *necessary* conditions,
one per prefix of the head of length ``h``::

    sum_{i<=h} p_i
      + (b_h/n)^d * sum_{h<i<=|H|} p_i
      + (b_h/n)^2 * sum_{i>|H|} p_i
      <= b_h * (1/n + epsilon)            for all k_h in H,

    where b_h = n - n*((n-1)/n)^(h*d)     (Appendix A).

``find_optimal_choices`` starts from the trivial lower bound
``d = ceil(p1 * n)`` (the hottest key needs at least ``p1*n`` workers) and
increases ``d`` until every prefix constraint is satisfied.  If no ``d < n``
works, the caller should switch to W-Choices; we signal that by returning
``d = n`` with ``use_w_choices=True``.

Both head sums of a prefix are *correctly rounded* (``math.fsum``), so ``d``
is a function of the head alone.  Builtin ``sum`` is not: Python 3.12 made it
compensated, and at ``epsilon = 0``, where uniform heads meet their
constraints with equality, that was enough to move ``d`` between
interpreters.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.exceptions import AnalysisError
from repro.fifo_map import FifoMap

#: Default imbalance tolerance used throughout the paper's evaluation.
DEFAULT_EPSILON = 1e-4


def expected_worker_set_size(num_workers: int, num_choices: int, prefix_length: int = 1) -> float:
    """Expected number of distinct workers hit by ``prefix_length * num_choices`` throws.

    This is ``b_h = n - n*((n-1)/n)^(h*d)`` from Appendix A: placing ``h*d``
    items uniformly at random (with replacement) into ``n`` slots leaves
    ``n*((n-1)/n)^(h*d)`` slots empty in expectation.
    """
    if num_workers < 1:
        raise AnalysisError(f"num_workers must be >= 1, got {num_workers}")
    if num_choices < 0:
        raise AnalysisError(f"num_choices must be >= 0, got {num_choices}")
    if prefix_length < 0:
        raise AnalysisError(f"prefix_length must be >= 0, got {prefix_length}")
    n = float(num_workers)
    throws = prefix_length * num_choices
    return n - n * ((n - 1.0) / n) ** throws


def prefix_constraint_satisfied(
    head: Sequence[float],
    tail_mass: float,
    num_workers: int,
    num_choices: int,
    prefix_length: int,
    epsilon: float = DEFAULT_EPSILON,
) -> bool:
    """Check the Proposition 4.1 constraint for one prefix of the head.

    Parameters
    ----------
    head:
        Probabilities ``p_1 >= p_2 >= ... >= p_|H|`` of the head keys.
    tail_mass:
        ``sum_{i > |H|} p_i`` — the probability mass of the tail.
    num_workers:
        Deployment size ``n``.
    num_choices:
        Candidate value of ``d`` for head keys.
    prefix_length:
        The prefix length ``h`` (1-based, ``1 <= h <= |H|``).
    epsilon:
        Imbalance tolerance.
    """
    if not 1 <= prefix_length <= len(head):
        raise AnalysisError(
            f"prefix_length {prefix_length} outside [1, {len(head)}]"
        )
    n = float(num_workers)
    b_h = expected_worker_set_size(num_workers, num_choices, prefix_length)
    prefix_mass = math.fsum(head[:prefix_length])
    rest_of_head = math.fsum(head[prefix_length:])
    ratio = b_h / n
    lhs = (
        prefix_mass
        + (ratio ** num_choices) * rest_of_head
        + (ratio ** 2) * tail_mass
    )
    rhs = b_h * (1.0 / n + epsilon)
    return lhs <= rhs


def all_constraints_satisfied(
    head: Sequence[float],
    tail_mass: float,
    num_workers: int,
    num_choices: int,
    epsilon: float = DEFAULT_EPSILON,
) -> bool:
    """Check every prefix constraint ``h = 1 .. |H|``."""
    return all(
        prefix_constraint_satisfied(
            head, tail_mass, num_workers, num_choices, prefix_length, epsilon
        )
        for prefix_length in range(1, len(head) + 1)
    )


@dataclass(frozen=True, slots=True)
class ChoicesSolution:
    """Result of the FINDOPTIMALCHOICES computation.

    Attributes
    ----------
    num_choices:
        The selected ``d``.  Equal to ``num_workers`` when the solver decided
        that D-Choices degenerates into W-Choices.
    use_w_choices:
        True when no ``d < n`` satisfied the constraints, i.e. the system
        should switch to W-Choices for the head.
    head_cardinality:
        ``|H|`` used for the computation.
    cost:
        The objective value ``d * |H|`` (replication/aggregation overhead).
    """

    num_choices: int
    use_w_choices: bool
    head_cardinality: int

    @property
    def cost(self) -> int:
        return self.num_choices * self.head_cardinality


def lower_bound_choices(p1: float, num_workers: int) -> int:
    """The simple lower bound ``d >= p1 * n`` (the hottest key alone).

    The load of the hottest key must fit in its ``d`` workers:
    ``p1 <= d/n`` hence ``d >= p1 * n``.  Always at least 2 because the tail
    already uses two choices and the head must not use fewer.
    """
    if not 0.0 <= p1 <= 1.0:
        raise AnalysisError(f"p1 must be in [0, 1], got {p1}")
    if num_workers < 1:
        raise AnalysisError(f"num_workers must be >= 1, got {num_workers}")
    return max(2, int(math.ceil(p1 * num_workers)))


def find_optimal_choices(
    head: Sequence[float],
    tail_mass: float,
    num_workers: int,
    epsilon: float = DEFAULT_EPSILON,
) -> ChoicesSolution:
    """Compute the smallest ``d`` satisfying the Proposition 4.1 constraints.

    Parameters
    ----------
    head:
        Estimated probabilities of the head keys, sorted descending.  May be
        empty, in which case two choices suffice (``d = 2``).
    tail_mass:
        Probability mass of all non-head keys.
    num_workers:
        Deployment size ``n``.
    epsilon:
        Imbalance tolerance (paper default ``1e-4``).

    Returns
    -------
    ChoicesSolution
        ``num_choices`` is the minimal feasible ``d`` found by scanning
        upward from the lower bound, or ``n`` with ``use_w_choices=True``
        when no ``d < n`` is feasible.
    """
    if num_workers < 1:
        raise AnalysisError(f"num_workers must be >= 1, got {num_workers}")
    if epsilon < 0.0:
        raise AnalysisError(f"epsilon must be >= 0, got {epsilon}")
    if tail_mass < 0.0 or tail_mass > 1.0 + 1e-9:
        raise AnalysisError(f"tail_mass must be in [0, 1], got {tail_mass}")
    head = list(head)
    if not head:
        return ChoicesSolution(num_choices=2, use_w_choices=False, head_cardinality=0)
    if min(head) < 0.0:
        raise AnalysisError("head probabilities must be non-negative")
    if any(map(operator.lt, head, [p - 1e-12 for p in head[1:]])):
        head = sorted(head, reverse=True)

    start = lower_bound_choices(head[0], num_workers)
    # all_constraints_satisfied(head, tail_mass, num_workers, candidate,
    # epsilon) for candidate = start, start + 1, ...: the head sums are taken
    # once per solve, the terms that depend only on (n, epsilon, d, h) once
    # per process, and every test runs the reference's float operations in
    # its order, so each ``lhs <= rhs`` -- and d -- is the reference's.
    prefix_masses, rests_of_head = head_masses(head)
    for candidate in range(start, num_workers):
        if _prefixes_satisfied(
            prefix_masses, rests_of_head, tail_mass, num_workers, epsilon, candidate
        ):
            return ChoicesSolution(
                num_choices=candidate,
                use_w_choices=False,
                head_cardinality=len(head),
            )
    return ChoicesSolution(
        num_choices=num_workers,
        use_w_choices=True,
        head_cardinality=len(head),
    )


def head_masses(head: Sequence[float]) -> tuple[list[float], list[float]]:
    """``math.fsum(head[:h])`` and ``math.fsum(head[h:])`` for ``h = 1 .. |H|``.

    Bit for bit, in one pass: every float is an integer multiple of
    ``2**-scale`` once ``scale`` covers the last mantissa bit of the smallest
    non-zero entry, so the entries are accumulated exactly as integers at
    that scale, and each prefix and suffix is rounded to a float once --
    which is what ``fsum``'s result is.  Entries must be non-negative and
    finite.
    """
    smallest = min(head, default=0.0) or min(filter(None, head), default=0.0)
    if not smallest:
        return [0.0] * len(head), [0.0] * len(head)
    scale = min(53 - math.frexp(smallest)[1], 1074)
    if scale <= 1023 and math.frexp(max(head))[1] + scale <= 1023:
        # Fast path: both scalings are exact (no entry leaves the float
        # range), and a prefix of at least ``smallest`` is a normal float,
        # so scaling the correctly rounded ``float(prefix)`` loses nothing.
        prefixes = list(accumulate(map(int, map(math.ldexp(1.0, scale).__mul__, head))))
        total = prefixes[-1]
        if total.bit_length() <= 1023:
            unit = math.ldexp(1.0, -scale)
            return (
                list(map(unit.__rmul__, prefixes)),
                list(map(unit.__rmul__, map(total.__sub__, prefixes))),
            )
    # A range of exponents beyond the float's: integer division rounds
    # correctly at any size, subnormal results included.
    prefixes = list(
        accumulate(
            numerator << (scale + 1 - denominator.bit_length())
            for numerator, denominator in map(float.as_integer_ratio, head)
        )
    )
    total = prefixes[-1]
    unit = 1 << scale
    return (
        [prefix / unit for prefix in prefixes],
        [(total - prefix) / unit for prefix in prefixes],
    )


#: ``(n, epsilon, d)`` triples whose d-only terms are kept across solves.  A
#: scan visits every ``d`` from the lower bound up, so the bound sits above
#: any ``n`` a deployment uses, or a FIFO would evict each triple just before
#: the next solve asks for it.
_TERMS_CACHE_LIMIT = 256

#: ``(n, epsilon, d) -> (bound, head_factor, tail_factor)``: the prefix
#: test's d-only terms ``b_h * (1/n + epsilon)``, ``(b_h/n)**d`` and
#: ``(b_h/n)**2``, indexed by ``h - 1`` and grown as far as a scan reached.
#: Shared by every solver in the process (all senders of a group, AD's tuner,
#: the figures): it memoises a pure function, so what it holds, or has
#: evicted, changes no result.
_TERMS: FifoMap[tuple[int, float, int], tuple[array, array, array]] = FifoMap(
    _TERMS_CACHE_LIMIT
)


def _prefixes_satisfied(
    prefix_masses: list[float],
    rests_of_head: list[float],
    tail_mass: float,
    num_workers: int,
    epsilon: float,
    candidate: int,
) -> bool:
    """``all_constraints_satisfied`` for ``d = candidate`` over the head sums."""
    key = (num_workers, epsilon, candidate)
    terms = _TERMS.get(key)
    if terms is None:
        terms = (array("d"), array("d"), array("d"))
        _TERMS.insert(key, terms)
    bound, head_factor, tail_factor = terms
    for prefix_mass, rest_of_head, rhs, spread, squared in zip(
        prefix_masses, rests_of_head, bound, head_factor, tail_factor
    ):
        if not prefix_mass + spread * rest_of_head + squared * tail_mass <= rhs:
            return False
    # The scan went past the cached prefixes: derive the rest as it goes.
    n = float(num_workers)
    miss = (n - 1.0) / n
    budget = 1.0 / n + epsilon
    for prefix_length in range(len(bound) + 1, len(prefix_masses) + 1):
        b_h = n - n * miss ** (prefix_length * candidate)
        ratio = b_h / n
        rhs = b_h * budget
        spread = ratio ** candidate
        squared = ratio ** 2
        bound.append(rhs)
        head_factor.append(spread)
        tail_factor.append(squared)
        lhs = (
            prefix_masses[prefix_length - 1]
            + spread * rests_of_head[prefix_length - 1]
            + squared * tail_mass
        )
        if not lhs <= rhs:
            return False
    return True


def minimal_feasible_choices_empirical(
    imbalance_by_d: Sequence[tuple[int, float]],
    target_imbalance: float,
) -> int | None:
    """Smallest ``d`` whose measured imbalance is within ``target_imbalance``.

    Used by the Figure 9 experiment: the empirical optimum is the smallest
    ``d`` for which running Greedy-d on the head matches the imbalance of
    W-Choices.  ``imbalance_by_d`` holds ``(d, measured imbalance)`` pairs.
    Returns ``None`` when no candidate meets the target.
    """
    feasible = [d for d, imbalance in imbalance_by_d if imbalance <= target_imbalance]
    return min(feasible) if feasible else None
