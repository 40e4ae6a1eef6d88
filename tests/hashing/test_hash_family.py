"""Unit tests for the seeded hash family."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.choices import expected_worker_set_size
from repro.exceptions import ConfigurationError
from repro.hashing.hash_family import HashFamily, stable_hash


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("apple", 1) == stable_hash("apple", 1)

    def test_different_seeds_differ(self):
        values = {stable_hash("apple", seed) for seed in range(50)}
        assert len(values) == 50

    def test_different_keys_differ(self):
        values = {stable_hash(f"key-{i}", 0) for i in range(1000)}
        assert len(values) == 1000

    def test_integer_and_string_keys_supported(self):
        assert isinstance(stable_hash(42, 0), int)
        assert isinstance(stable_hash("42", 0), int)

    def test_int_and_equal_string_hash_differently(self):
        assert stable_hash(42, 0) != stable_hash("42", 0)

    def test_bool_distinct_from_int(self):
        assert stable_hash(True, 0) != stable_hash(1, 0)

    def test_bytes_keys_supported(self):
        assert stable_hash(b"abc", 3) == stable_hash(b"abc", 3)

    def test_output_is_64_bit(self):
        for i in range(100):
            assert 0 <= stable_hash(i, 7) < 2**64


class TestHashFamily:
    def test_rejects_non_positive_functions(self):
        with pytest.raises(ConfigurationError):
            HashFamily(num_functions=0, num_buckets=10)

    def test_rejects_non_positive_buckets(self):
        with pytest.raises(ConfigurationError):
            HashFamily(num_functions=2, num_buckets=0)

    def test_candidates_length_and_range(self):
        family = HashFamily(num_functions=5, num_buckets=7, seed=3)
        candidates = family.candidates("key")
        assert len(candidates) == 5
        assert all(0 <= c < 7 for c in candidates)

    def test_candidates_prefix_property(self):
        family = HashFamily(num_functions=5, num_buckets=100, seed=3)
        assert family.candidates("key", 2) == family.candidates("key", 5)[:2]

    def test_candidates_deterministic(self):
        one = HashFamily(num_functions=3, num_buckets=50, seed=9)
        two = HashFamily(num_functions=3, num_buckets=50, seed=9)
        assert one.candidates("abc") == two.candidates("abc")

    def test_different_seeds_give_different_candidates(self):
        one = HashFamily(num_functions=2, num_buckets=1000, seed=1)
        two = HashFamily(num_functions=2, num_buckets=1000, seed=2)
        differing = sum(
            one.candidates(f"k{i}") != two.candidates(f"k{i}") for i in range(100)
        )
        assert differing > 90

    def test_candidates_d_out_of_range(self):
        family = HashFamily(num_functions=2, num_buckets=10)
        with pytest.raises(ConfigurationError):
            family.candidates("x", 3)
        with pytest.raises(ConfigurationError):
            family.candidates("x", 0)

    def test_families_of_different_sizes_share_a_prefix(self):
        small = HashFamily(num_functions=2, num_buckets=10, seed=5)
        large = HashFamily(num_functions=6, num_buckets=10, seed=5)
        assert large.candidates("k", 2) == small.candidates("k")

    def test_candidates_are_roughly_uniform(self):
        family = HashFamily(num_functions=1, num_buckets=10, seed=11)
        buckets = [family.candidates(f"key-{i}")[0] for i in range(20_000)]
        counts = np.bincount(buckets, minlength=10)
        assert counts.sum() == 20_000
        assert counts.min() > 1500
        assert counts.max() < 2500

    def test_single_bucket_everything_collides(self):
        family = HashFamily(num_functions=3, num_buckets=1)
        assert family.candidates("anything") == (0, 0, 0)


class TestWorkerSetSize:
    @pytest.mark.parametrize("n, d", [(20, 8), (10, 2), (50, 5), (5, 20)])
    def test_matches_empirical_hash_behaviour(self, n, d):
        # b_h of Appendix A at h = 1: the distinct workers d ideal hashes hit.
        family = HashFamily(num_functions=d, num_buckets=n, seed=17)
        sizes = [len(set(family.candidates(f"key-{i}"))) for i in range(3000)]
        empirical = sum(sizes) / len(sizes)
        assert empirical == pytest.approx(expected_worker_set_size(n, d), rel=0.05)
