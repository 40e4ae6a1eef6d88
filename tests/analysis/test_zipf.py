"""Unit tests for the finite Zipf distribution."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import zipf
from repro.analysis.zipf import (
    ZipfDistribution,
    empirical_probabilities,
    guide_table,
    inverse_cdf_draws,
    sampling_cdf,
    zipf_probabilities,
)
from repro.exceptions import ConfigurationError


class TestZipfDistribution:
    def test_probabilities_sum_to_one(self):
        dist = ZipfDistribution(exponent=1.3, num_keys=5000)
        assert float(dist.probabilities.sum()) == pytest.approx(1.0)

    def test_probabilities_non_increasing(self):
        dist = ZipfDistribution(exponent=0.9, num_keys=1000)
        probabilities = dist.probabilities
        assert np.all(np.diff(probabilities) <= 1e-15)

    def test_uniform_when_exponent_zero(self):
        dist = ZipfDistribution(exponent=0.0, num_keys=10)
        assert np.allclose(dist.probabilities, 0.1)

    def test_p1_grows_with_skew(self):
        p1_values = [
            ZipfDistribution(exponent=z, num_keys=1000).p1 for z in (0.5, 1.0, 1.5, 2.0)
        ]
        assert all(b > a for a, b in zip(p1_values, p1_values[1:]))

    def test_paper_claim_z2_p1_near_sixty_percent(self):
        # "under a Zipf distribution with exponent z = 2.0, the most frequent
        # key represents nearly 60% of the occurrences"
        dist = ZipfDistribution(exponent=2.0, num_keys=10_000)
        assert 0.55 < dist.p1 < 0.65

    def test_probability_by_rank(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=100)
        assert dist.probability(1) == pytest.approx(dist.p1)
        assert dist.probability(2) == pytest.approx(dist.p1 / 2)

    def test_probability_rank_out_of_range(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=100)
        with pytest.raises(ConfigurationError):
            dist.probability(0)
        with pytest.raises(ConfigurationError):
            dist.probability(101)

    def test_prefix_and_tail_mass_complementary(self):
        dist = ZipfDistribution(exponent=1.2, num_keys=500)
        for length in (0, 1, 10, 500):
            assert dist.prefix_mass(length) + dist.tail_mass(length) == pytest.approx(1.0)

    def test_prefix_mass_monotone(self):
        dist = ZipfDistribution(exponent=1.2, num_keys=500)
        masses = [dist.prefix_mass(length) for length in range(0, 501, 50)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_keys_above_threshold(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=100)
        count = dist.keys_above(dist.probability(10))
        assert count == 10

    def test_keys_above_zero_threshold(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=100)
        assert dist.keys_above(0.0) == 100

    def test_keys_above_large_threshold(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=100)
        assert dist.keys_above(1.0) == 0

    def test_expected_counts(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=10)
        counts = dist.expected_counts(1000)
        assert counts.sum() == pytest.approx(1000)
        assert counts[0] == pytest.approx(1000 * dist.p1)

    def test_expected_counts_rejects_negative(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=10)
        with pytest.raises(ConfigurationError):
            dist.expected_counts(-1)

    def test_sample_ranks_within_support(self):
        dist = ZipfDistribution(exponent=1.5, num_keys=50)
        rng = np.random.default_rng(0)
        ranks = dist.sample_ranks(1000, rng)
        assert ranks.min() >= 1
        assert ranks.max() <= 50

    def test_sample_ranks_skewed_towards_low_ranks(self):
        dist = ZipfDistribution(exponent=2.0, num_keys=50)
        rng = np.random.default_rng(0)
        ranks = dist.sample_ranks(5000, rng)
        assert (ranks == 1).mean() == pytest.approx(dist.p1, abs=0.05)

    @pytest.mark.parametrize(
        "exponent, num_keys",
        [(0.8, 1_000_000), (1.4, 10_000), (2.0, 10_000), (0, 1_000), (0.1, 100_000), (1.0, 7)],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2016])
    def test_sample_ranks_is_rng_choice_with_the_cdf_kept(self, exponent, num_keys, seed):
        # The reference is the call sample_ranks used to make: same draws,
        # same dtype, same generator consumption — at size 0 too.
        dist = ZipfDistribution(exponent, num_keys)
        support = np.arange(1, num_keys + 1)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (0, 1, 3_000, 0, 500):
            ranks = dist.sample_ranks(size, rng)
            reference = reference_rng.choice(support, size=size, p=dist.probabilities)
            assert ranks.dtype == reference.dtype
            assert ranks.shape == reference.shape
            assert (ranks == reference).all()
        assert rng.random() == reference_rng.random()

    def test_sample_ranks_rejects_negative(self):
        dist = ZipfDistribution(exponent=1.0, num_keys=10)
        with pytest.raises(ConfigurationError):
            dist.sample_ranks(-1, np.random.default_rng(0))

    def test_prefix_mass_is_the_running_sum_of_probabilities(self):
        # prefix_mass reads its own lazily built table, not the normalised
        # sampling CDF: the two differ in the last place and fig4 / fig9
        # print the former.
        dist = ZipfDistribution(exponent=0.8, num_keys=1_000_000)
        dist.sample_ranks(10, np.random.default_rng(0))
        cumulative = np.cumsum(dist.probabilities)
        for length in (1, 7, 1_000, 999_999, 1_000_000, 2_000_000):
            assert dist.prefix_mass(length) == float(cumulative[min(length, 1_000_000) - 1])
        assert dist.prefix_mass(1_000_000) != 1.0
        assert dist.tail_mass(5) == 1.0 - float(cumulative[4])

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ZipfDistribution(exponent=-0.1, num_keys=10)
        with pytest.raises(ConfigurationError):
            ZipfDistribution(exponent=1.0, num_keys=0)


class TestSamplingCdf:
    def test_is_the_table_rng_choice_builds(self):
        p = np.array([0.5, 0.0, 0.25, 0.25])
        cdf = sampling_cdf(p)
        expected = p.cumsum()
        expected /= expected[-1]
        assert cdf.dtype == np.float64
        assert (cdf == expected).all()
        assert cdf[-1] == 1.0

    def test_distribution_keeps_one_table(self):
        dist = ZipfDistribution(1.1, 500)
        assert dist.sampling_cdf is dist.sampling_cdf
        assert (dist.sampling_cdf == sampling_cdf(dist.probabilities)).all()
        assert dist.sampling_guide is dist.sampling_guide
        assert (dist.sampling_guide == guide_table(dist.sampling_cdf)).all()

    @pytest.mark.parametrize(
        "probabilities, message",
        [
            ([0.6, -0.1, 0.5], "non-negative"),
            ([0.5, float("nan"), 0.5], "NaN"),
            ([0.5, 0.25, 0.251], "sum to 1"),
            ([0.5, 0.25, 0.249], "sum to 1"),
            ([], "non-empty"),
            ([[0.5, 0.5]], "1-D"),
        ],
    )
    def test_rejects_what_rng_choice_rejects(self, probabilities, message):
        # rng.choice made these checks on every call; they are made once,
        # where the table is built.
        with pytest.raises(ConfigurationError, match=message):
            sampling_cdf(np.array(probabilities, dtype=np.float64))

    def test_accepts_rounding_noise_and_normalises_it_away(self):
        p = np.array([0.25, 0.25, 0.5 + 1e-10])
        np.random.default_rng(0).choice(3, size=1, p=p)  # numpy accepts it too
        assert sampling_cdf(p)[-1] == 1.0


class TestInverseCdfDraws:
    @pytest.mark.parametrize("exponent, num_keys", [(0.8, 100_000), (1.4, 1_000), (2.0, 10), (0, 3)])
    def test_is_searchsorted_right_in_stream_order(self, exponent, num_keys):
        cdf = ZipfDistribution(exponent, num_keys).sampling_cdf
        rng = np.random.default_rng(5)
        # Random needles, needles *on* CDF entries (side="right" goes past
        # a tie), both ends of [0, 1), and runs of equal needles.
        uniforms = np.concatenate(
            [
                rng.random(5_000),
                cdf[rng.integers(0, num_keys - 1, size=50)],
                [0.0, np.nextafter(1.0, 0.0), 0.5, 0.5, 0.5],
            ]
        )
        rng.shuffle(uniforms)
        draws = inverse_cdf_draws(cdf, guide_table(cdf), uniforms)
        assert draws.dtype == np.int64
        assert (draws == cdf.searchsorted(uniforms, side="right")).all()
        assert draws.min() >= 0 and draws.max() < num_keys

    def test_empty_and_single(self):
        cdf = sampling_cdf(np.array([0.2, 0.8]))
        guide = guide_table(cdf)
        assert inverse_cdf_draws(cdf, guide, np.empty(0)).shape == (0,)
        assert inverse_cdf_draws(cdf, guide, np.array([0.19])).tolist() == [0]
        assert inverse_cdf_draws(cdf, guide, np.array([0.2])).tolist() == [1]


def _reference_guide(cdf: np.ndarray) -> np.ndarray:
    size = 1 << (cdf.size - 1).bit_length()
    return cdf.searchsorted(np.arange(size) / size, side="right").astype(np.int32)


def _needles(cdf: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Both ends of [0, 1), every guide cell's left edge ``j / G``, every
    CDF entry below 1 and the double just under it, and random draws."""
    inner = cdf[cdf < 1.0]
    return np.concatenate(
        [
            [0.0, np.nextafter(1.0, 0.0)],
            np.arange(size) / size,
            inner,
            np.nextafter(inner[inner > 0.0], 0.0),
            np.random.default_rng(seed).random(1_000),
        ]
    )


def _steps_checked(probabilities: np.ndarray, seed: int) -> np.ndarray:
    """Assert the draws are ``searchsorted(u, "right")``; return how many
    steps forward of its guide entry each needle's answer lay."""
    cdf = sampling_cdf(probabilities)
    guide = guide_table(cdf)
    assert guide.dtype == np.int32
    assert (guide == _reference_guide(cdf)).all()
    needles = _needles(cdf, guide.size, seed)
    expected = cdf.searchsorted(needles, side="right")
    draws = inverse_cdf_draws(cdf, guide, needles)
    assert draws.dtype == np.int64
    assert (draws == expected).all()
    return expected - guide[(needles * guide.size).astype(np.intp)]


#: K in {1, 2, 2^k, 2^k + 1}: a table of one cell, of two, exactly filled
#: and one entry over (the guide doubles).
_SIZES = st.integers(0, 12).flatmap(
    lambda k: st.sampled_from(sorted({1, 2, 2**k, 2**k + 1}))
)


@st.composite
def _probability_vectors(draw):
    """Random, uniform, small-integer and Zipf weights, with zero entries
    (flat CDF runs) scattered over them; at least one entry is non-zero."""
    size = draw(_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "uniform", "integers", "zipf"]))
    if shape == "random":
        weights = rng.random(size)
    elif shape == "uniform":
        weights = np.ones(size)  # entries on the guide's grid at K = 2^k
    elif shape == "integers":
        weights = rng.integers(0, 4, size).astype(np.float64)
    else:
        weights = np.arange(1, size + 1, dtype=np.float64) ** -draw(st.floats(0.0, 2.5))
    weights[rng.random(size) < draw(st.floats(0.0, 0.9))] = 0.0
    if not weights.any():
        weights[rng.integers(size)] = 1.0
    return weights / weights.sum()


class TestGuideTableDraws:
    """The guide-table search is ``cdf.searchsorted(u, "right")`` exactly.

    This is the gate on the draws: the benchmark's oracle draws through
    the same helper, so a wrong draw would not fail a trial there.
    """

    @settings(max_examples=80, deadline=None)
    @given(probabilities=_probability_vectors(), seed=st.integers(0, 2**16))
    def test_draws_are_searchsorted_right(self, probabilities, seed):
        steps = _steps_checked(probabilities, seed)
        assert steps.min() >= 0

    @settings(max_examples=25, deadline=None)
    @given(
        size=st.integers(10, 13).flatmap(lambda k: st.sampled_from([2**k, 2**k + 1])),
        exponent=st.floats(1.8, 2.5),
        zero_every=st.sampled_from([0, 3, 7]),
        seed=st.integers(0, 2**16),
    )
    def test_crowded_tail_takes_the_probe_and_the_leftover_path(
        self, size, exponent, zero_every, seed
    ):
        # A Zipf-2.0-style law puts hundreds of CDF entries in its last
        # cells: the needles on them step past every probe round.
        weights = np.arange(1, size + 1, dtype=np.float64) ** -exponent
        if zero_every:
            weights[1::zero_every] = 0.0
        steps = _steps_checked(weights / weights.sum(), seed)
        assert ((steps >= 1) & (steps <= zipf._PROBE_ROUNDS)).any()
        assert (steps > zipf._PROBE_ROUNDS).any()

    @pytest.mark.parametrize("exponent", [0.0, 0.8, 2.0])
    def test_guide_build_holds_only_the_guide(self, exponent):
        # At a million keys the guide is 2^20 int32 (4 MiB); building it
        # allocates no K-sized float or int64 temporary besides.
        cdf = ZipfDistribution(exponent, 1_000_000).sampling_cdf
        tracemalloc.start()
        try:
            guide = guide_table(cdf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert guide.dtype == np.int32
        assert guide.size == 2**20
        assert peak <= guide.nbytes + 2**20, peak - guide.nbytes


class TestHelpers:
    def test_zipf_probabilities_cached_equivalence(self):
        direct = ZipfDistribution(1.1, 100).probabilities
        cached = zipf_probabilities(1.1, 100)
        assert np.allclose(direct, np.asarray(cached))

    def test_empirical_probabilities_sorted_and_normalised(self):
        probabilities = empirical_probabilities([5, 50, 10])
        assert probabilities[0] == pytest.approx(50 / 65)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_empirical_probabilities_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            empirical_probabilities([])

    def test_empirical_probabilities_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            empirical_probabilities([1, -2])

    def test_empirical_probabilities_rejects_all_zero(self):
        with pytest.raises(ConfigurationError):
            empirical_probabilities([0, 0])
