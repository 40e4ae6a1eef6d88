"""Unit tests for the Zipf and drifting-Zipf workloads."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads.base import materialize
from repro.workloads.drift import DriftingZipfWorkload
from repro.workloads.zipf_stream import _CHUNK, ZipfWorkload


def _choice_stream(exponent: float, num_keys: int, num_messages: int, seed: int):
    """The stream as it was drawn before the CDF was kept: one
    ``rng.choice`` over the full probability table per ``_CHUNK`` draws."""
    workload = ZipfWorkload(exponent, num_keys, 0)
    rng = np.random.default_rng(seed)
    support = np.arange(1, num_keys + 1)
    ranks: list[int] = []
    for start in range(0, num_messages, _CHUNK):
        size = min(_CHUNK, num_messages - start)
        ranks += rng.choice(
            support, size=size, p=workload.distribution.probabilities
        ).tolist()
    return ranks


class TestZipfWorkload:
    def test_length_matches_request(self):
        workload = ZipfWorkload(1.0, 100, 5000, seed=1)
        assert len(list(workload.keys())) == 5000

    def test_keys_within_support(self):
        workload = ZipfWorkload(1.0, 100, 5000, seed=1)
        keys = set(workload.keys())
        assert all(1 <= key <= 100 for key in keys)

    def test_reproducible_for_same_seed(self):
        one = list(ZipfWorkload(1.2, 100, 1000, seed=7))
        two = list(ZipfWorkload(1.2, 100, 1000, seed=7))
        assert one == two

    def test_different_seeds_differ(self):
        one = list(ZipfWorkload(1.2, 100, 1000, seed=7))
        two = list(ZipfWorkload(1.2, 100, 1000, seed=8))
        assert one != two

    def test_empirical_p1_close_to_distribution(self):
        workload = ZipfWorkload(1.8, 500, 50_000, seed=2)
        counts = Counter(workload.keys())
        empirical_p1 = counts.most_common(1)[0][1] / 50_000
        assert empirical_p1 == pytest.approx(workload.distribution.p1, rel=0.1)

    def test_stats_reports_nominal_values(self):
        workload = ZipfWorkload(1.4, 1000, 12345, seed=0)
        stats = workload.stats()
        assert stats.symbol == "ZF"
        assert stats.messages == 12345
        assert stats.keys == 1000
        assert stats.p1 == pytest.approx(workload.distribution.p1)

    def test_measured_stats_counts_stream(self):
        workload = ZipfWorkload(1.4, 50, 2000, seed=0)
        measured = workload.measured_stats()
        assert measured.messages == 2000
        assert measured.keys <= 50

    def test_messages_iterator_timestamps(self):
        workload = ZipfWorkload(1.0, 10, 5, seed=0)
        messages = list(workload.messages())
        assert [message.timestamp for message in messages] == [0.0, 1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize(
        "exponent, num_keys, num_messages, seed",
        [
            (1.4, 10_000, _CHUNK + 1_500, 2016),  # crosses a draw boundary
            (0.8, 1_000_000, 3_000, 31),
            (0.0, 50, 2 * _CHUNK, 7),  # ends exactly on one
        ],
    )
    def test_streams_are_the_rng_choice_streams(
        self, exponent, num_keys, num_messages, seed
    ):
        reference = _choice_stream(exponent, num_keys, num_messages, seed)
        workload = ZipfWorkload(exponent, num_keys, num_messages, seed=seed)
        assert list(workload.keys()) == reference
        for batch_size in (1_000, 8_192, _CHUNK + 7):
            batches = list(workload.iter_batches(batch_size))
            assert [key for batch in batches for key in batch] == reference
            assert all(type(key) is int for key in batches[0])
            columnar = list(workload.iter_batches_columnar(batch_size))
            assert [key for batch in columnar for key in batch.keys()] == reference

    def test_rejects_negative_messages(self):
        with pytest.raises(WorkloadError):
            ZipfWorkload(1.0, 10, -1)

    def test_zero_messages_allowed(self):
        assert list(ZipfWorkload(1.0, 10, 0)) == []

    def test_materialize_limit(self):
        workload = ZipfWorkload(1.0, 10, 1000, seed=0)
        assert len(materialize(workload, limit=10)) == 10


class TestDriftingZipfWorkload:
    def test_length_matches_request(self):
        workload = DriftingZipfWorkload(1.0, 100, 3000, num_epochs=3, seed=1)
        assert len(list(workload.keys())) == 3000

    def test_reproducible_for_same_seed(self):
        one = list(DriftingZipfWorkload(1.5, 50, 2000, num_epochs=4, seed=3))
        two = list(DriftingZipfWorkload(1.5, 50, 2000, num_epochs=4, seed=3))
        assert one == two

    def test_no_drift_fraction_keeps_head_stable(self):
        workload = DriftingZipfWorkload(
            2.0, 100, 4000, num_epochs=4, drift_fraction=0.0, seed=5
        )
        keys = list(workload.keys())
        first_head = Counter(keys[:1000]).most_common(1)[0][0]
        last_head = Counter(keys[-1000:]).most_common(1)[0][0]
        assert first_head == last_head

    def test_full_drift_changes_head(self):
        workload = DriftingZipfWorkload(
            2.0, 500, 20_000, num_epochs=4, drift_fraction=1.0, seed=5
        )
        keys = list(workload.keys())
        epoch_length = 5000
        heads = [
            Counter(keys[i * epoch_length : (i + 1) * epoch_length]).most_common(1)[0][0]
            for i in range(4)
        ]
        assert len(set(heads)) > 1

    def test_epoch_of_message(self):
        workload = DriftingZipfWorkload(1.0, 10, 100, num_epochs=4, seed=0)
        assert workload.epoch_of_message(0) == 0
        assert workload.epoch_of_message(25) == 1
        assert workload.epoch_of_message(99) == 3

    def test_epoch_of_message_out_of_range(self):
        workload = DriftingZipfWorkload(1.0, 10, 100, num_epochs=4, seed=0)
        with pytest.raises(WorkloadError):
            workload.epoch_of_message(100)

    def test_invalid_construction(self):
        with pytest.raises(WorkloadError):
            DriftingZipfWorkload(1.0, 10, 100, num_epochs=0)
        with pytest.raises(WorkloadError):
            DriftingZipfWorkload(1.0, 10, 100, drift_fraction=1.5)
        with pytest.raises(WorkloadError):
            DriftingZipfWorkload(1.0, 10, -5)

    def test_stats(self):
        workload = DriftingZipfWorkload(1.3, 200, 1000, num_epochs=5, seed=0)
        stats = workload.stats()
        assert stats.symbol == "ZF-DRIFT"
        assert stats.keys == 200
        assert stats.messages == 1000
