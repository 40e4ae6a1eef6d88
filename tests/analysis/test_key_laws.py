"""One copy of each key law per process, read-only, gone with its last holder.

A law's tables (probabilities, prefix masses, sampling CDF, guide) are a
pure function of its parameters, and a sweep reads the same few laws from
every scheme, worker count and seed.  ``KeyLaw.shared`` hands every holder
of one law the same object.  Each holder building its own copy leaves every
draw identical, so no stream test notices it; this file pins the sharing,
the read-only tables, their values against the arithmetic they replace,
and what building and holding a law allocates, in the register of
``tests/simulation/test_hash_row_costs.py``.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.analysis import zipf
from repro.analysis.memory import memory_model_for_zipf
from repro.analysis.zipf import ZipfDistribution, guide_table
from repro.workloads.drift import DriftingZipfWorkload
from repro.workloads.synthetic import (
    CashtagLikeWorkload,
    HeadBodyLaw,
    TwitterLikeWorkload,
    WikipediaLikeWorkload,
)
from repro.workloads.zipf_stream import ZipfWorkload

MIB = 1 << 20


def _zipf_reference(exponent: float, num_keys: int) -> np.ndarray:
    """The probability vector as it was computed before it was built in place."""
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _head_body_reference(head, num_body_keys, body_exponent) -> np.ndarray:
    head_size = len(head)
    body_ranks = np.arange(head_size + 1, head_size + num_body_keys + 1, dtype=np.float64)
    body_weights = body_ranks ** (-body_exponent)
    body = body_weights / body_weights.sum() * (1.0 - float(sum(head)))
    probabilities = np.concatenate([np.asarray(head), body])
    return probabilities / probabilities.sum()


def _cdf_reference(probabilities: np.ndarray) -> np.ndarray:
    cdf = probabilities.cumsum()
    return cdf / cdf[-1]


def _guide_reference(cdf: np.ndarray) -> np.ndarray:
    size = 1 << (cdf.size - 1).bit_length()
    return cdf.searchsorted(np.arange(size) / size, side="right").astype(np.int32)


def _first(workload) -> list:
    return next(iter(workload.iter_batches(64)))


class TestOneLawPerProcess:
    def test_zipf_workloads_share_the_law_and_its_tables(self):
        first = ZipfWorkload(0.81, 20_000, 1_000, seed=1)
        second = ZipfWorkload(0.81, 20_000, 50, seed=2)
        _first(first)
        law = first.distribution
        assert second.distribution is law
        assert DriftingZipfWorkload(0.81, 20_000, 10).distribution is law
        assert ZipfDistribution.shared(0.81, 20_000) is law
        cdf, guide = law.sampling_cdf, law.sampling_guide
        _first(second)
        assert second.distribution.sampling_cdf is cdf
        assert second.distribution.sampling_guide is guide
        assert law.prefix_masses is second.distribution.prefix_masses

    def test_drifting_and_cashtag_workloads_share_the_law(self):
        first = DriftingZipfWorkload(0.83, 2_000, 300, num_epochs=3, seed=1)
        second = CashtagLikeWorkload(num_messages=40, num_keys=2_000, exponent=0.83, seed=9)
        _first(first)
        law = first.distribution
        assert second._inner.distribution is law
        _first(second)
        assert second._inner.distribution.sampling_cdf is law.sampling_cdf

    def test_wikipedia_like_workloads_share_the_head_body_tables(self):
        first = WikipediaLikeWorkload(num_messages=500, num_body_keys=12_345, seed=1)
        second = WikipediaLikeWorkload(num_messages=40, num_body_keys=12_345, seed=2)
        assert second.probabilities is first.probabilities
        _first(first)
        assert second._law is first._law
        assert second._law.sampling_cdf is first._law.sampling_cdf
        assert second._law.sampling_guide is first._law.sampling_guide
        other = WikipediaLikeWorkload(num_messages=40, num_body_keys=12_346, seed=2)
        assert other._law is not first._law

    def test_other_parameters_are_other_laws(self):
        law = ZipfDistribution.shared(0.84, 1_000)
        assert ZipfDistribution.shared(0.85, 1_000) is not law
        assert ZipfDistribution.shared(0.84, 1_001) is not law
        # The public constructor still builds a private copy.
        assert ZipfDistribution(0.84, 1_000) is not law

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ZipfWorkload(0.87, 30_000, 100, seed=3),
            lambda: DriftingZipfWorkload(0.87, 30_000, 100, num_epochs=2, seed=3),
            lambda: WikipediaLikeWorkload(num_messages=100, num_body_keys=23_456, seed=3),
        ],
        ids=["zipf", "drifting", "wikipedia-like"],
    )
    def test_the_registry_keeps_nothing_once_the_holders_go(self, make):
        first, second = make(), make()
        _first(first)
        _first(second)
        law = getattr(first, "distribution", None) or first._law
        keys = [key for key, value in zipf._LIVE_LAWS.items() if value is law]
        assert len(keys) == 1
        gone = weakref.ref(law)
        del first, second, law
        gc.collect()
        assert gone() is None
        assert keys[0] not in zipf._LIVE_LAWS

    def test_analysis_shares_the_law_a_stream_holds(self):
        workload = ZipfWorkload(0.88, 40_000, 10, seed=0)
        memory_model_for_zipf(0.88, 40_000, 1_000, 10)
        law = workload.distribution
        # The model read prefix masses through the stream's law, so they
        # stay built on it.
        assert law._prefix_masses is not None


class TestReadOnlyTables:
    @pytest.mark.parametrize("table", ["probabilities", "sampling_cdf", "sampling_guide", "prefix_masses"])
    def test_zipf_tables_refuse_writes(self, table):
        array = getattr(ZipfDistribution.shared(0.89, 5_000), table)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            array[1:3] *= 2

    @pytest.mark.parametrize("table", ["probabilities", "sampling_cdf", "sampling_guide"])
    @pytest.mark.parametrize("workload", [WikipediaLikeWorkload, TwitterLikeWorkload])
    def test_head_body_tables_refuse_writes(self, workload, table):
        array = getattr(workload(num_messages=10, num_body_keys=3_000)._law, table)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


class TestTablesAreTodaysArithmetic:
    @pytest.mark.parametrize(
        "exponent, num_keys", [(0.8, 1_000_000), (1.4, 10_000), (0.0, 1_000)]
    )
    def test_zipf_tables(self, exponent, num_keys):
        law = ZipfDistribution.shared(exponent, num_keys)
        probabilities = _zipf_reference(exponent, num_keys)
        assert np.array_equal(law.probabilities, probabilities)
        assert np.array_equal(law.prefix_masses, np.cumsum(probabilities))
        cdf = _cdf_reference(probabilities)
        assert np.array_equal(law.sampling_cdf, cdf)
        assert law.sampling_guide.dtype == np.int32
        assert np.array_equal(law.sampling_guide, _guide_reference(cdf))

    @pytest.mark.parametrize("workload", [WikipediaLikeWorkload, TwitterLikeWorkload])
    def test_head_body_tables_at_the_defaults(self, workload):
        default = workload()
        law = default._law
        probabilities = _head_body_reference(
            workload._HEAD, default._num_body_keys, default._body_exponent
        )
        assert np.array_equal(law.probabilities, probabilities)
        cdf = _cdf_reference(probabilities)
        assert np.array_equal(law.sampling_cdf, cdf)
        assert np.array_equal(law.sampling_guide, guide_table(cdf))


class TestLawCosts:
    def test_a_second_stream_of_a_live_law_allocates_no_table(self):
        first = ZipfWorkload(0.8, 10**6, 1_000, seed=2016)
        _first(first)
        tracemalloc.start()
        try:
            second = ZipfWorkload(0.8, 10**6, 5_000, seed=31)
            drawn = sum(len(batch) for batch in second.iter_batches(1_024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn == 5_000
        # Each workload building its own law allocated over 20 MiB here.
        assert peak < MIB, peak

    def test_building_a_law_holds_one_table_at_a_time(self):
        tracemalloc.start()
        try:
            law = ZipfDistribution(0.8, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ``ranks ** -z / sum`` held three 8 MiB arrays at its peak.
        assert peak < 1.25 * law.probabilities.nbytes, peak

    def test_building_a_head_body_law_holds_one_table_at_a_time(self):
        tracemalloc.start()
        try:
            law = HeadBodyLaw(WikipediaLikeWorkload._HEAD, 10**6, 1.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * law.probabilities.nbytes, peak
