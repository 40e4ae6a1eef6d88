"""The fused bulk classification contract of every sketch.

``add_and_classify_batch`` / ``add_and_classify_runs`` are the hot path of
batched head/tail routing; their flags must be byte-identical to the
reference per-message ``add`` + ``estimate`` loop for every sketch, every
threshold and every warmup, or batched routing silently diverges from
scalar.  ``head_signature`` and ``head_counts`` are the cheap accessors the
D-Choices solver throttle polls; their semantics are pinned to
``heavy_hitters`` — including each sketch's own cutoff correction.
"""

from __future__ import annotations

import random

import pytest

from repro.sketches.base import runs_to_flags
from repro.sketches.count_min import CountMinSketch
from repro.sketches.lossy_counting import LossyCounting
from repro.sketches.misra_gries import MisraGries
from repro.sketches.space_saving import SpaceSaving
from repro.workloads.zipf_stream import ZipfWorkload

SKETCHES = {
    "space-saving": lambda: SpaceSaving(capacity=40),
    "misra-gries": lambda: MisraGries(capacity=40),
    "lossy-counting": lambda: LossyCounting(epsilon=0.02),
    "count-min": lambda: CountMinSketch(width=128, depth=3, top_k=32, seed=7),
}


def _streams():
    zipf = list(ZipfWorkload(1.3, 300, 4_000, seed=11))
    rng = random.Random(5)
    uniform = [f"u{rng.randrange(500)}" for _ in range(4_000)]
    bursty = [key for key in zipf[:500] for _ in range(3)]
    return {"zipf": zipf, "uniform": uniform, "bursty": bursty}


def _reference_flags(sketch, keys, threshold, warmup):
    flags = []
    for key in keys:
        sketch.add(key)
        total = sketch.total
        flags.append(total >= warmup and sketch.estimate(key) >= threshold * total)
    return flags


class TestAddAndClassifyBatch:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("stream", ["zipf", "uniform", "bursty"])
    @pytest.mark.parametrize("warmup", [0, 100])
    def test_flags_match_reference_loop(self, name, stream, warmup):
        keys = _streams()[stream]
        threshold = 0.05
        reference = SKETCHES[name]()
        expected = _reference_flags(reference, keys, threshold, warmup)

        fused = SKETCHES[name]()
        tails: list = []
        actual: list[bool] = []
        for start in range(0, len(keys), 997):  # chunking must not matter
            actual.extend(
                fused.add_and_classify_batch(
                    keys[start : start + 997], threshold, warmup, tails
                )
            )

        assert actual == expected
        assert fused.total == reference.total == len(keys)
        assert tails == [key for key, hot in zip(keys, expected) if not hot]

    @pytest.mark.parametrize("name", SKETCHES)
    def test_runs_encode_the_same_classification(self, name):
        keys = _streams()["zipf"]
        threshold = 0.05
        flat = SKETCHES[name]()
        expected = flat.add_and_classify_batch(keys, threshold, 50)

        run_form = SKETCHES[name]()
        tails: list = []
        runs = run_form.add_and_classify_runs(keys, threshold, 50, tails)

        assert runs_to_flags(runs) == expected
        assert sum(runs) + len(tails) == len(keys)
        assert len(runs) == len(tails) + 1
        assert run_form.total == flat.total

    def test_empty_chunk(self):
        sketch = SpaceSaving(capacity=4)
        assert sketch.add_and_classify_batch([], 0.1) == []
        assert sketch.add_and_classify_runs([], 0.1) == [0]
        assert runs_to_flags([0]) == []


class TestHeadSignature:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("stream", ["zipf", "uniform", "bursty"])
    @pytest.mark.parametrize("threshold", [0.01, 0.05, 0.3])
    def test_signature_pins_heavy_hitters_len_and_max(self, name, stream, threshold):
        sketch = SKETCHES[name]()
        for key in _streams()[stream]:
            sketch.add(key)
        head = sketch.heavy_hitters(threshold)
        expected = (len(head), max(head.values())) if head else (0, 0)
        assert sketch.head_signature(threshold) == expected

    @pytest.mark.parametrize("name", SKETCHES)
    def test_signature_of_empty_sketch(self, name):
        assert SKETCHES[name]().head_signature(0.1) == (0, 0)

    def test_signature_checked_at_every_prefix(self):
        # The D-Choices throttle may read the signature at any stream
        # offset; walk one and compare against heavy_hitters each time.
        sketch = SpaceSaving(capacity=16)
        for index, key in enumerate(ZipfWorkload(1.5, 100, 800, seed=3)):
            sketch.add(key)
            if index % 37 == 0:
                head = sketch.heavy_hitters(0.08)
                expected = (len(head), max(head.values())) if head else (0, 0)
                assert sketch.head_signature(0.08) == expected


class TestHeadCounts:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("threshold", [0.01, 0.05, 0.3])
    def test_counts_are_heavy_hitters_values(self, name, threshold):
        sketch = SKETCHES[name]()
        for key in _streams()["zipf"]:
            sketch.add(key)
        expected = sorted(sketch.heavy_hitters(threshold).values())
        assert sorted(sketch.head_counts(threshold)) == expected

    def test_counts_of_empty_sketch(self):
        assert SpaceSaving(capacity=4).head_counts(0.5) == []
