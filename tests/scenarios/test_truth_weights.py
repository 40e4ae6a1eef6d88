"""Truths read the Zipf law from the one registry of live key laws.

Every truth's Zipf weights are :meth:`ZipfDistribution.shared`'s read-only
probability vector.  Pinned: each epoch a truth yields is bit for bit what
it was when the truths normalised ``ranks ** -z`` themselves, and no truth
writes into the shared vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.zipf import ZipfDistribution
from repro.scenarios import truth
from repro.scenarios.truth import PATTERNS


def _own_arithmetic(num_keys: int, exponent: float) -> np.ndarray:
    """What every truth computed before the registry served its weights."""
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _epochs(pattern: str, num_keys: int, seed: int) -> list[tuple[int, np.ndarray]]:
    return list(PATTERNS[pattern]().epochs(9_000, num_keys, np.random.default_rng(seed)))


@pytest.mark.parametrize("num_keys", [1, 2, 37, 5_000])
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_epochs_equal_the_truths_own_arithmetic(pattern, num_keys, monkeypatch):
    shared = _epochs(pattern, num_keys, seed=5)
    with monkeypatch.context() as patched:
        patched.setattr(truth, "_zipf_weights", _own_arithmetic)
        expected = _epochs(pattern, num_keys, seed=5)
    assert [length for length, _ in shared] == [length for length, _ in expected]
    for (_, weights), (_, reference) in zip(shared, expected):
        assert np.array_equal(weights, reference)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_no_truth_writes_the_shared_law(pattern):
    law = ZipfDistribution.shared(0.7, 400)  # single_key_flood's tail law
    assert truth._zipf_weights(400, 0.7) is law.probabilities
    before = law.probabilities.copy()
    first = _epochs(pattern, 400, seed=9)
    again = _epochs(pattern, 400, seed=9)
    assert np.array_equal(law.probabilities, before)
    assert not law.probabilities.flags.writeable
    for (_, weights), (_, repeat) in zip(first, again):
        assert np.array_equal(weights, repeat)
