"""Truth layer of the scenario catalog: key-popularity processes.

A *truth* describes **what the traffic is** — which keys exist and how
popular each one is at every point of the stream — without saying anything
about how the messages arrive.  Truths are pure probability processes: they
yield a sequence of epochs, each an ``(epoch_length, probabilities)`` pair
where ``probabilities`` is a distribution over the integer key space
``1 .. num_keys``.  Turning a truth into an actual arrival sequence (order,
burstiness, duplication) is the *render* layer's job
(:mod:`repro.scenarios.render`), so one truth can be rendered several ways
— the design borrowed from the truth→render split of synthetic-data
generators (see ``docs/scenarios.md``).

Every truth draws its internal randomness (hot-key identities, churn
choices) from the RNG it is handed; the scenario workload seeds that RNG
with a seed derived from ``(scenario_name, "truth", seed)``, so truth and
render randomness never correlate.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Iterator

import numpy as np

from repro.analysis.zipf import ZipfDistribution
from repro.exceptions import ScenarioError

#: One epoch of a truth process: (number of messages, key probabilities).
Epoch = tuple[int, np.ndarray]


def _zipf_weights(num_keys: int, exponent: float) -> np.ndarray:
    """The Zipf law's probability vector over ``num_keys`` ranks.

    It is the process's one copy (:meth:`ZipfDistribution.shared`) and
    read-only: a truth that edits weights copies them first.  An empty
    support (the second half of a one-key space) has no law.
    """
    if num_keys == 0:
        return np.zeros(0)
    return ZipfDistribution.shared(exponent, num_keys).probabilities


def _epoch_lengths(num_messages: int, num_epochs: int) -> list[int]:
    base = num_messages // num_epochs
    lengths = [base] * num_epochs
    lengths[-1] += num_messages - base * num_epochs
    return [length for length in lengths if length > 0]


class Truth(abc.ABC):
    """Abstract key-popularity process over the key space ``1..num_keys``."""

    @abc.abstractmethod
    def epochs(
        self, num_messages: int, num_keys: int, rng: np.random.Generator
    ) -> Iterator[Epoch]:
        """Yield ``(epoch_length, probabilities)`` pairs covering the stream.

        The lengths must sum to ``num_messages`` and every probability
        vector must cover the same support ``1..num_keys`` (keys may carry
        zero mass — e.g. not-yet-grown keys).
        """


class StaticZipfTruth(Truth):
    """Stationary Zipf popularity — the paper's ZF baseline as a truth."""

    def __init__(self, exponent: float = 1.2) -> None:
        self.exponent = exponent

    def epochs(self, num_messages, num_keys, rng):
        yield num_messages, _zipf_weights(num_keys, self.exponent)


class FlashCrowdTruth(Truth):
    """A previously-cold key suddenly takes a large share of the traffic.

    The stream starts as a plain Zipf; at ``start`` (fraction of the
    stream) one cold key — chosen by the truth RNG from the bottom half of
    the ranking — spikes to ``peak_share`` of all traffic, then decays
    geometrically back over ``num_decay_epochs`` epochs.  Models a
    breaking-news page or a viral post.
    """

    def __init__(
        self,
        exponent: float = 0.9,
        start: float = 0.3,
        peak_share: float = 0.25,
        num_decay_epochs: int = 6,
    ) -> None:
        if not 0.0 < start < 1.0:
            raise ScenarioError(f"flash-crowd start must be in (0, 1), got {start}")
        if not 0.0 < peak_share < 1.0:
            raise ScenarioError(
                f"flash-crowd peak_share must be in (0, 1), got {peak_share}"
            )
        self.exponent = exponent
        self.start = start
        self.peak_share = peak_share
        self.num_decay_epochs = max(1, num_decay_epochs)

    def epochs(self, num_messages, num_keys, rng):
        base = _zipf_weights(num_keys, self.exponent)
        # The crowd key is cold before the flash: bottom half of the ranking.
        crowd_key = int(rng.integers(num_keys // 2, num_keys))
        calm = int(round(num_messages * self.start))
        if calm > 0:
            yield calm, base
        remaining = num_messages - calm
        if remaining <= 0:
            return
        share = self.peak_share
        for length in _epoch_lengths(remaining, self.num_decay_epochs):
            spiked = base * (1.0 - share)
            spiked[crowd_key] += share
            yield length, spiked
            share *= 0.5  # geometric decay back towards the base truth


class HotKeyChurnTruth(Truth):
    """The *identity* of the hot keys rotates every epoch.

    Within an epoch keys follow a Zipf law, but the mapping from rank to
    key identity is re-drawn for the top ``churn_ranks`` ranks at every
    epoch boundary — yesterday's hottest key is cold today.  The pure-truth
    formulation of the drift machinery stressing the SpaceSaving head.
    """

    def __init__(
        self, exponent: float = 1.3, num_epochs: int = 8, churn_ranks: int = 20
    ) -> None:
        self.exponent = exponent
        self.num_epochs = max(1, num_epochs)
        self.churn_ranks = max(1, churn_ranks)

    def epochs(self, num_messages, num_keys, rng):
        weights = _zipf_weights(num_keys, self.exponent)
        mapping = np.arange(num_keys)
        # Replacements are drawn from *outside* the top ranks so the swap
        # below stays a permutation even when the same identity is drawn
        # in consecutive epochs.
        churn = min(self.churn_ranks, num_keys // 2) or 1
        for epoch, length in enumerate(
            _epoch_lengths(num_messages, self.num_epochs)
        ):
            if epoch > 0 and num_keys > 1:
                replacements = churn + rng.choice(
                    num_keys - churn, size=churn, replace=False
                )
                mapping = mapping.copy()
                top = mapping[:churn].copy()
                mapping[:churn] = mapping[replacements]
                mapping[replacements] = top
            probabilities = np.zeros(num_keys)
            probabilities[mapping] = weights
            yield length, probabilities


class DiurnalCycleTruth(Truth):
    """Skew oscillates sinusoidally between a calm and a peaked regime.

    Models the day/night cycle of production traffic: overnight the stream
    is mild (``low_exponent``), at the daily peak a few keys dominate
    (``high_exponent``).  ``num_cycles`` full days are squeezed into the
    stream, sampled at ``epochs_per_cycle`` points.
    """

    def __init__(
        self,
        low_exponent: float = 0.6,
        high_exponent: float = 1.5,
        num_cycles: int = 2,
        epochs_per_cycle: int = 8,
    ) -> None:
        if high_exponent < low_exponent:
            raise ScenarioError(
                "diurnal cycle needs high_exponent >= low_exponent, got "
                f"{high_exponent} < {low_exponent}"
            )
        self.low_exponent = low_exponent
        self.high_exponent = high_exponent
        self.num_cycles = max(1, num_cycles)
        self.epochs_per_cycle = max(2, epochs_per_cycle)

    def epochs(self, num_messages, num_keys, rng):
        total_epochs = self.num_cycles * self.epochs_per_cycle
        amplitude = (self.high_exponent - self.low_exponent) / 2.0
        midpoint = (self.high_exponent + self.low_exponent) / 2.0
        for epoch, length in enumerate(_epoch_lengths(num_messages, total_epochs)):
            phase = 2.0 * math.pi * epoch / self.epochs_per_cycle
            exponent = midpoint - amplitude * math.cos(phase)
            yield length, _zipf_weights(num_keys, exponent)


class KeySpaceGrowthTruth(Truth):
    """The active key space grows geometrically over the stream.

    Epoch ``e`` draws from a Zipf law over only the first ``K_e`` keys,
    with ``K_e`` growing from ``initial_fraction * num_keys`` to the full
    key space — the onboarding curve of a growing product, stressing
    partitioners whose state was sized for the early key space.
    """

    def __init__(
        self,
        exponent: float = 1.1,
        num_epochs: int = 8,
        initial_fraction: float = 0.05,
    ) -> None:
        if not 0.0 < initial_fraction <= 1.0:
            raise ScenarioError(
                f"initial_fraction must be in (0, 1], got {initial_fraction}"
            )
        self.exponent = exponent
        self.num_epochs = max(2, num_epochs)
        self.initial_fraction = initial_fraction

    def epochs(self, num_messages, num_keys, rng):
        lengths = _epoch_lengths(num_messages, self.num_epochs)
        start = max(1, int(round(num_keys * self.initial_fraction)))
        # Geometric growth schedule reaching the full key space at the end.
        ratio = (num_keys / start) ** (1.0 / max(1, len(lengths) - 1))
        for epoch, length in enumerate(lengths):
            active = min(num_keys, max(1, int(round(start * ratio**epoch))))
            probabilities = np.zeros(num_keys)
            probabilities[:active] = _zipf_weights(active, self.exponent)
            yield length, probabilities


class SingleKeyFloodTruth(Truth):
    """Adversarial flood: one key takes a fixed, large share throughout.

    The worst case for single-choice hashing — ``flood_share`` of all
    traffic lands on one key drawn by the truth RNG; the rest follows a
    mild Zipf tail.  Key-grouping's imbalance lower bound equals the flood
    share; multi-choice schemes split it across their candidates.
    """

    def __init__(self, flood_share: float = 0.4, tail_exponent: float = 0.7) -> None:
        if not 0.0 < flood_share < 1.0:
            raise ScenarioError(
                f"flood_share must be in (0, 1), got {flood_share}"
            )
        self.flood_share = flood_share
        self.tail_exponent = tail_exponent

    def epochs(self, num_messages, num_keys, rng):
        flood_key = int(rng.integers(0, num_keys))
        probabilities = _zipf_weights(num_keys, self.tail_exponent) * (
            1.0 - self.flood_share
        )
        probabilities[flood_key] += self.flood_share
        yield num_messages, probabilities


class DriftMixtureTruth(Truth):
    """Traffic migrates gradually from one key population to another.

    Two disjoint Zipf populations (the first and second half of the key
    space, independently shuffled by the truth RNG) are mixed with a weight
    that slides from 0 to 1 across the stream — a slow-motion concept
    drift, unlike the hard epoch cuts of :class:`HotKeyChurnTruth`.
    """

    def __init__(self, exponent: float = 1.2, num_epochs: int = 10) -> None:
        self.exponent = exponent
        self.num_epochs = max(2, num_epochs)

    def epochs(self, num_messages, num_keys, rng):
        half = max(1, num_keys // 2)
        old = np.zeros(num_keys)
        old[rng.permutation(half)] = _zipf_weights(half, self.exponent)
        new = np.zeros(num_keys)
        new[half + rng.permutation(num_keys - half)] = _zipf_weights(
            num_keys - half, self.exponent
        )
        lengths = _epoch_lengths(num_messages, self.num_epochs)
        for epoch, length in enumerate(lengths):
            weight = epoch / max(1, len(lengths) - 1)
            yield length, (1.0 - weight) * old + weight * new


#: Pattern name -> truth factory.  The catalog's required ``pattern`` field
#: resolves here; factories accept the spec's ``truth_options`` as kwargs.
PATTERNS: dict[str, Callable[..., Truth]] = {
    "static_zipf": StaticZipfTruth,
    "flash_crowd": FlashCrowdTruth,
    "hot_key_churn": HotKeyChurnTruth,
    "diurnal_cycle": DiurnalCycleTruth,
    "key_space_growth": KeySpaceGrowthTruth,
    "single_key_flood": SingleKeyFloodTruth,
    "drift_mixture": DriftMixtureTruth,
}


def make_truth(pattern: str, options: dict | None = None, *, scenario: str | None = None) -> Truth:
    """Instantiate the truth for ``pattern``; unknown names fail loudly.

    ``scenario`` (when given) names the offending spec in the error, per
    the fail-loudly contract of the scenario catalog.
    """
    factory = PATTERNS.get(pattern)
    if factory is None:
        prefix = f"scenario {scenario!r}: " if scenario else ""
        raise ScenarioError(
            f"{prefix}unknown pattern {pattern!r}; valid patterns: "
            f"{sorted(PATTERNS)}"
        )
    try:
        return factory(**(options or {}))
    except TypeError as exc:
        prefix = f"scenario {scenario!r}: " if scenario else ""
        raise ScenarioError(
            f"{prefix}invalid truth options for pattern {pattern!r}: {exc}"
        ) from exc
