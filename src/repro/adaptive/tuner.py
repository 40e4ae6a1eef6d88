"""Online theta/d retuning from the monitor sketch's live head summary.

The paper computes the head threshold ``theta`` and choice count ``d``
offline, from the full frequency distribution.  Online, the only view
available is the sender-local SpaceSaving summary; :class:`ParameterTuner`
turns that summary into construction parameters for the next delegate using
the *existing* solver accessors — ``head_counts`` / ``head_signature`` on
the sketch and :func:`~repro.analysis.choices.find_optimal_choices` for the
Proposition 4.1 constraints — so the adaptive partitioner's tuning is the
same analysis the static D-Choices scheme runs, just re-applied whenever
the observed distribution drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.bounds import theta_range
from repro.analysis.choices import (
    DEFAULT_EPSILON,
    ChoicesSolution,
    find_optimal_choices,
)


@dataclass(frozen=True, slots=True)
class ParameterTuner:
    """Derive theta and d proposals from a live frequency summary.

    Parameters
    ----------
    epsilon:
        Imbalance tolerance forwarded to the choices solver.
    theta_fraction:
        Where in ``(pkg-safe, p1]`` the proposed theta sits, as a fraction
        of the observed hottest frequency: ``theta = p1 * theta_fraction``,
        clamped into the admissible ``[1/(5n), 2/n]`` range.  Half the
        hottest frequency keeps the whole momentarily-hot cluster in the
        head without dragging the sketch capacity up for the tail.
    """

    epsilon: float = DEFAULT_EPSILON
    theta_fraction: float = 0.5

    def propose_theta(self, sketch, num_workers: int) -> float | None:
        """A head threshold matched to the observed skew, or None.

        None means "use the scheme's own default": the stream shows no key
        above the admissible range's lower edge, so there is nothing to
        anchor a tuned threshold to.
        """
        total = sketch.total
        if total <= 0:
            return None
        admissible = theta_range(num_workers)
        _, hottest = sketch.head_signature(admissible.lower)
        p1 = hottest / total
        if p1 <= admissible.lower:
            return None
        return admissible.clamp(p1 * self.theta_fraction)

    def propose_choices(
        self, sketch, theta: float, num_workers: int
    ) -> ChoicesSolution:
        """FINDOPTIMALCHOICES over the monitor's current head at ``theta``."""
        total = sketch.total
        head_counts = sorted(sketch.head_counts(theta), reverse=True)
        if not head_counts or total <= 0:
            return ChoicesSolution(
                num_choices=2, use_w_choices=False, head_cardinality=0
            )
        head = [count / total for count in head_counts]
        tail_mass = max(0.0, 1.0 - math.fsum(head))
        return find_optimal_choices(head, tail_mass, num_workers, self.epsilon)


__all__ = ["ParameterTuner"]
