"""Memory-overhead models from Section IV-B (Figures 5 and 6).

With unitary per-key state, the worker-side memory of each scheme is:

* PKG — every key is split over at most two workers, but a key that occurs
  fewer than twice cannot occupy two workers:
  ``mem_PKG = sum_k min(f_k, 2)`` (``f_k`` = absolute count of key k);
* Shuffle grouping — a key may reach every worker:
  ``mem_SG = sum_k min(f_k, n)``;
* D-Choices — head keys occupy at most ``d`` workers, tail keys at most two:
  ``mem_DC = sum_{k in H} min(f_k, d) + sum_{k not in H} min(f_k, 2)``;
* W-Choices / Round-Robin — head keys occupy up to ``n`` workers:
  ``mem_WC = sum_{k in H} min(f_k, n) + sum_{k not in H} min(f_k, 2)``.

The figures in the paper plot D-C and W-C memory *relative* to PKG
(Figure 5) and to SG (Figure 6): ``100 * (mem_X - mem_ref) / mem_ref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.choices import ChoicesSolution, find_optimal_choices
from repro.analysis.head import head_cardinality
from repro.analysis.zipf import ZipfDistribution
from repro.exceptions import AnalysisError


def _as_counts(counts: Sequence[float]) -> np.ndarray:
    array = np.asarray(counts, dtype=np.float64)
    if array.size == 0:
        raise AnalysisError("counts must not be empty")
    if np.any(array < 0):
        raise AnalysisError("counts must be non-negative")
    return array


def memory_pkg(counts: Sequence[float]) -> float:
    """``sum_k min(f_k, 2)``."""
    return float(np.minimum(_as_counts(counts), 2.0).sum())


def memory_shuffle(counts: Sequence[float], num_workers: int) -> float:
    """``sum_k min(f_k, n)``."""
    if num_workers < 1:
        raise AnalysisError(f"num_workers must be >= 1, got {num_workers}")
    return float(np.minimum(_as_counts(counts), float(num_workers)).sum())


def memory_dchoices(
    counts: Sequence[float],
    head_size: int,
    num_choices: int,
) -> float:
    """``sum_{head} min(f_k, d) + sum_{tail} min(f_k, 2)``.

    ``counts`` must be sorted in non-increasing order so the first
    ``head_size`` entries are the head.
    """
    array = _as_counts(counts)
    if head_size < 0 or head_size > array.size:
        raise AnalysisError(
            f"head_size {head_size} outside [0, {array.size}]"
        )
    if num_choices < 2:
        raise AnalysisError(f"num_choices must be >= 2, got {num_choices}")
    head = array[:head_size]
    tail = array[head_size:]
    return float(
        np.minimum(head, float(num_choices)).sum() + np.minimum(tail, 2.0).sum()
    )


def memory_wchoices(counts: Sequence[float], head_size: int, num_workers: int) -> float:
    """``sum_{head} min(f_k, n) + sum_{tail} min(f_k, 2)``."""
    return memory_dchoices(counts, head_size, max(2, num_workers))


def relative_overhead(memory: float, reference: float) -> float:
    """Percentage overhead of ``memory`` with respect to ``reference``."""
    if reference <= 0.0:
        raise AnalysisError(f"reference memory must be positive, got {reference}")
    return 100.0 * (memory - reference) / reference


@dataclass(frozen=True, slots=True)
class MemoryModel:
    """All memory figures for one (distribution, n, theta, epsilon) setting."""

    num_workers: int
    theta: float
    epsilon: float
    head_size: int
    num_choices: int
    switched_to_wchoices: bool
    pkg: float
    shuffle: float
    dchoices: float
    wchoices: float

    @property
    def dchoices_vs_pkg(self) -> float:
        """D-Choices overhead relative to PKG, in percent (Figure 5)."""
        return relative_overhead(self.dchoices, self.pkg)

    @property
    def wchoices_vs_pkg(self) -> float:
        """W-Choices overhead relative to PKG, in percent (Figure 5)."""
        return relative_overhead(self.wchoices, self.pkg)

    @property
    def dchoices_vs_shuffle(self) -> float:
        """D-Choices overhead relative to SG, in percent (Figure 6)."""
        return relative_overhead(self.dchoices, self.shuffle)

    @property
    def wchoices_vs_shuffle(self) -> float:
        """W-Choices overhead relative to SG, in percent (Figure 6)."""
        return relative_overhead(self.wchoices, self.shuffle)


def memory_model_for_zipf(
    exponent: float,
    num_keys: int,
    num_messages: int,
    num_workers: int,
    theta: float | None = None,
    epsilon: float = 1e-4,
) -> MemoryModel:
    """Build the full memory model for a Zipf workload (Figures 5 and 6).

    ``theta`` defaults to the paper's ``1/(5n)``.
    """
    from repro.analysis.bounds import theta_range  # local import avoids a cycle

    if num_messages < 1:
        raise AnalysisError(f"num_messages must be >= 1, got {num_messages}")
    if theta is None:
        theta = theta_range(num_workers).default
    distribution = ZipfDistribution.shared(exponent, num_keys)
    counts = distribution.expected_counts(num_messages)
    head_size = head_cardinality(distribution, theta)
    head = distribution.probabilities[:head_size]
    tail_mass = distribution.tail_mass(head_size)
    solution: ChoicesSolution = find_optimal_choices(
        head, tail_mass, num_workers, epsilon
    )
    return MemoryModel(
        num_workers=num_workers,
        theta=theta,
        epsilon=epsilon,
        head_size=head_size,
        num_choices=solution.num_choices,
        switched_to_wchoices=solution.use_w_choices,
        pkg=memory_pkg(counts),
        shuffle=memory_shuffle(counts, num_workers),
        dchoices=memory_dchoices(counts, head_size, max(2, solution.num_choices)),
        wchoices=memory_wchoices(counts, head_size, num_workers),
    )
