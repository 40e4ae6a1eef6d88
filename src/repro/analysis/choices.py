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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import AnalysisError

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
    prefix_mass = float(sum(head[:prefix_length]))
    rest_of_head = float(sum(head[prefix_length:]))
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
    if any(p < 0.0 for p in head):
        raise AnalysisError("head probabilities must be non-negative")
    if head and any(
        head[i] < head[i + 1] - 1e-12 for i in range(len(head) - 1)
    ):
        head = sorted(head, reverse=True)

    if not head:
        return ChoicesSolution(num_choices=2, use_w_choices=False, head_cardinality=0)

    start = lower_bound_choices(head[0], num_workers)
    # all_constraints_satisfied(head, tail_mass, num_workers, candidate,
    # epsilon) for candidate = start, start + 1, ... — except that the two
    # head sums of each prefix, which do not depend on the candidate, are
    # taken once per solve.  They are the very expressions of
    # prefix_constraint_satisfied, and every test below runs its float
    # operations in its order, so each ``lhs <= rhs`` is the same
    # computation: running or compensated sums would be cheaper still, but
    # could flip a constraint that holds with equality, and d with it.
    masses = [
        (float(sum(head[:prefix_length])), float(sum(head[prefix_length:])))
        for prefix_length in range(1, len(head) + 1)
    ]
    n = float(num_workers)
    miss = (n - 1.0) / n
    budget = 1.0 / n + epsilon
    for candidate in range(start, num_workers):
        throws = 0
        for prefix_mass, rest_of_head in masses:
            throws += candidate
            b_h = n - n * miss ** throws
            ratio = b_h / n
            lhs = (
                prefix_mass
                + (ratio ** candidate) * rest_of_head
                + (ratio ** 2) * tail_mass
            )
            if not lhs <= b_h * budget:
                break
        else:
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
