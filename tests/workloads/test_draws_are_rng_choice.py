"""Every stream that used to call ``rng.choice(support, size, p=...)`` still
draws exactly what that call drew.

``analysis.zipf.inverse_cdf_draws`` replaced five ``rng.choice`` sites
(head/body workloads, the drifting Zipf stream, the i.i.d. and bursty
scenario renderers) beside ``ZipfDistribution.sample_ranks``, whose own grid
is in ``tests/analysis/test_zipf.py``.  The reference here is the loop each
site used to run: same values, same dtype, same generator consumption —
where the generator is the caller's, its next output is compared; where a
workload owns it, the draws *after* a chunk or epoch boundary depend on the
state the earlier ones left, so a stream equal past the boundary consumed
the generator identically.

The draw chunk is shrunk so a few thousand messages cross it several times
(with a ragged last chunk); chunk boundaries do not move a double stream —
``rng.random(a)`` then ``rng.random(b)`` is ``rng.random(a + b)`` cut in two.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.zipf import KeyLaw
from repro.exceptions import ConfigurationError
from repro.scenarios import render
from repro.scenarios.render import BurstyRenderer, IidRenderer
from repro.workloads import drift, synthetic
from repro.workloads.drift import DriftingZipfWorkload
from repro.workloads.synthetic import (
    TwitterLikeWorkload,
    WikipediaLikeWorkload,
    _HeadBodyWorkload,
)

SEEDS = (0, 7, 2016)
CHUNK = 1_000


def _decoded(workload, batch_size):
    keys = []
    for batch in workload.iter_batches_columnar(batch_size):
        keys += batch.keys()
    return keys


def _flat(batches):
    return [key for batch in batches for key in batch]


HEAD_BODY = {
    "WP": lambda seed: WikipediaLikeWorkload(2_500, num_body_keys=3_000, seed=seed),
    "TW": lambda seed: TwitterLikeWorkload(2_500, num_body_keys=500, seed=seed),
    "no-head": lambda seed: _HeadBodyWorkload(
        "plain", "X", (), 40, 0.7, 2_500, seed=seed
    ),
}


class TestHeadBodyWorkloads:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", list(HEAD_BODY))
    def test_every_representation_is_the_rng_choice_stream(self, name, seed, monkeypatch):
        monkeypatch.setattr(synthetic, "_CHUNK", CHUNK)
        workload = HEAD_BODY[name](seed)
        rng = np.random.default_rng(seed)
        support = np.arange(workload.probabilities.size)
        reference = [
            rng.choice(support, size=size, p=workload.probabilities)
            for size in (CHUNK, CHUNK, 500)
        ]
        draws = list(workload._draw_chunks())
        assert [chunk.size for chunk in draws] == [CHUNK, CHUNK, 500]
        for got, expected in zip(draws, reference):
            assert got.dtype == expected.dtype
            assert (got == expected).all()
        indices = np.concatenate(reference).tolist()
        head = len(workload._head_fractions)
        names = [f"head-{i}" if i < head else f"key-{i - head}" for i in indices]
        assert workload._key_names(indices) == names
        assert list(workload.keys()) == names
        assert _flat(workload.iter_batches(300)) == names
        assert _decoded(workload, 300) == names
        # Re-iterable: the kept CDF is not consumed.
        assert list(workload.keys()) == names

    def test_bad_probabilities_raise_when_the_cdf_is_built(self):
        workload = WikipediaLikeWorkload(10, num_body_keys=20, seed=0)
        spoiled = workload.probabilities.copy()
        spoiled[3] += 1e-3
        workload._law = KeyLaw(spoiled)
        with pytest.raises(ConfigurationError, match="sum to 1"):
            next(workload.keys())


class TestDriftingZipf:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("drift_fraction", [1.0, 0.3, 0.0])
    def test_spans_across_epoch_and_chunk_boundaries(self, seed, drift_fraction, monkeypatch):
        monkeypatch.setattr(drift, "_CHUNK", CHUNK)
        # Three epochs of 1,700 / 1,700 / 1,701: every epoch crosses the
        # draw chunk, and every epoch boundary rotates the mapping from
        # the same generator the draws come from.
        workload = DriftingZipfWorkload(
            1.1, 300, 5_101, num_epochs=3, drift_fraction=drift_fraction, seed=seed
        )
        rng = np.random.default_rng(seed)
        probabilities = workload.distribution.probabilities
        support = np.arange(300)
        mapping = np.arange(1, 301)
        reference = []
        for epoch, length in enumerate((1_700, 1_700, 1_701)):
            if epoch > 0 and drift_fraction > 0.0:
                mapping = workload._rotate_mapping(mapping, rng)
            for size in (CHUNK, length - CHUNK):
                reference.append(mapping[rng.choice(support, size=size, p=probabilities)])
        spans = list(workload._draw_spans())
        assert [span.size for span in spans] == [span.size for span in reference]
        for got, expected in zip(spans, reference):
            assert got.dtype == expected.dtype
            assert (got == expected).all()
        keys = np.concatenate(reference).tolist()
        assert list(workload.keys()) == keys
        assert _flat(workload.iter_batches(700)) == keys
        assert _decoded(workload, 700) == keys


def _epochs():
    """Three epochs: a Zipf law, one with zero-mass keys, a near-point mass."""
    zipf = np.arange(1, 201, dtype=np.float64) ** -0.9
    zipf /= zipf.sum()
    growing = np.zeros(200)
    growing[:25] = 1.0 / 25
    flood = np.full(200, 0.4 / 199)
    flood[117] = 0.6
    return [(2_300, zipf), (0, zipf), (1_001, growing), (1_700, flood)]


class TestRenderers:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_iid_spans(self, seed, monkeypatch):
        monkeypatch.setattr(render, "_CHUNK", CHUNK)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        support = np.arange(1, 201)
        spans = list(IidRenderer().spans(iter(_epochs()), rng))
        reference = [
            reference_rng.choice(support, size=size, p=probabilities)
            for length, probabilities in _epochs()
            for size in [CHUNK] * (length // CHUNK) + [length % CHUNK]
            if size
        ]
        assert len(spans) == len(reference) == 7
        for got, expected in zip(spans, reference):
            assert got.dtype == expected.dtype
            assert (got == expected).all()
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("burst", [1, 4, 7])
    def test_bursty_spans(self, seed, burst, monkeypatch):
        monkeypatch.setattr(render, "_CHUNK", CHUNK)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        support = np.arange(1, 201)
        spans = list(BurstyRenderer(burst).spans(iter(_epochs()), rng))
        reference = []
        for length, probabilities in _epochs():
            for size in [CHUNK] * (length // CHUNK) + [length % CHUNK]:
                if size:
                    events = reference_rng.choice(
                        support, size=-(-size // burst), p=probabilities
                    )
                    reference.append(np.repeat(events, burst)[:size])
        assert len(spans) == len(reference)
        for got, expected in zip(spans, reference):
            assert got.dtype == expected.dtype
            assert (got == expected).all()
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda p: p.__setitem__(slice(0, 2), [-0.01, p[0] + p[1] + 0.01]), "non-negative"),
            (lambda p: p.__setitem__(5, np.nan), "NaN"),
            (lambda p: p.__setitem__(5, p[5] + 1e-3), "sum to 1"),
        ],
        ids=["negative", "nan", "sum"],
    )
    @pytest.mark.parametrize("renderer", [IidRenderer(), BurstyRenderer(3)], ids=["iid", "bursty"])
    def test_bad_epoch_probabilities_raise_before_any_draw(self, renderer, spoil, message):
        probabilities = _epochs()[0][1].copy()
        spoil(probabilities)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=message):
            next(renderer.spans(iter([(10, probabilities)]), rng))
        assert rng.random() == np.random.default_rng(0).random()
