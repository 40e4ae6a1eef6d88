"""The fused bulk classification contract of the sketch.

``add_and_classify_runs`` is the hot path of batched head/tail routing; the
flags ``runs_to_flags`` expands from its runs must be byte-identical to the
reference per-message ``add`` + ``estimate`` loop for every sketch shape,
every threshold and every warmup, or batched routing silently diverges from
scalar.  ``head_signature`` and ``head_counts`` are the cheap accessors the
D-Choices solver throttle polls; their semantics are pinned to
``heavy_hitters``.

The rows are the shapes the fused pass meets in the partitioners: a sketch
that evicts on most misses (capacity 1), one that never evicts (capacity
above every stream's distinct keys), one grown in place between chunks (a
rescale that lowers theta), one rebuilt from its exported state between
chunks (an adopted state) and one rebuilt with its counters inserted
largest first between chunks, the reverse of ``from_state``'s replay order,
so the count classes are created and linked in the other direction.
"""

from __future__ import annotations

import random

import pytest

from repro.sketches.space_saving import SpaceSaving, runs_to_flags
from repro.workloads.zipf_stream import ZipfWorkload

CHUNK = 997


def _grown(sketch: SpaceSaving) -> SpaceSaving:
    sketch.grow(sketch.capacity + 7)
    return sketch


def _rebuilt(sketch: SpaceSaving) -> SpaceSaving:
    return SpaceSaving.from_state(sketch.export_state())


def _largest_first(sketch: SpaceSaving) -> SpaceSaving:
    # The sort is stable: keys of one count class keep their summary order.
    state = sketch.export_state()
    state["entries"].sort(key=lambda entry: entry[1], reverse=True)
    return SpaceSaving.from_state(state)


#: name -> (fresh sketch, what happens to it between two chunks)
SKETCHES = {
    "space-saving": (lambda: SpaceSaving(capacity=40), None),
    "capacity-1": (lambda: SpaceSaving(capacity=1), None),
    "never-evicts": (lambda: SpaceSaving(capacity=1_000), None),
    "grown": (lambda: SpaceSaving(capacity=8), _grown),
    "from-state": (lambda: SpaceSaving(capacity=40), _rebuilt),
    "largest-first": (lambda: SpaceSaving(capacity=40), _largest_first),
}


def _streams():
    zipf = list(ZipfWorkload(1.3, 300, 4_000, seed=11))
    rng = random.Random(5)
    uniform = [f"u{rng.randrange(500)}" for _ in range(4_000)]
    bursty = [key for key in zipf[:500] for _ in range(3)]
    return {"zipf": zipf, "uniform": uniform, "bursty": bursty}


def _chunked(name, keys, step):
    """Feed ``keys`` to a fresh ``name`` sketch in chunks of ``CHUNK``.

    ``step(sketch, chunk)`` consumes one chunk and returns its per-message
    results (or ``None``); the row's between-chunks hook runs at every
    chunk boundary.  Returns the final sketch and the concatenated results.
    """
    fresh, between = SKETCHES[name]
    sketch = fresh()
    results: list = []
    for start in range(0, len(keys), CHUNK):
        if start and between is not None:
            sketch = between(sketch)
        results.extend(step(sketch, keys[start : start + CHUNK]) or ())
    return sketch, results


def _classified(sketch, keys, threshold, warmup=0, tails=None):
    """One flag per key, expanded from the fused pass's head runs."""
    runs = sketch.add_and_classify_runs(keys, threshold, warmup, tails)
    flags = runs_to_flags(runs)
    return [False] * (len(runs) - 1) if flags is None else flags.tolist()


def _reference_flags(sketch, keys, threshold, warmup):
    flags = []
    for key in keys:
        sketch.add(key)
        total = sketch.total
        flags.append(total >= warmup and sketch.estimate(key) >= threshold * total)
    return flags


def _filled(name, keys):
    return _chunked(name, keys, lambda sketch, chunk: sketch.add_all(chunk))[0]


class TestAddAndClassifyBatch:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("stream", ["zipf", "uniform", "bursty"])
    @pytest.mark.parametrize("warmup", [0, 100])
    def test_flags_match_reference_loop(self, name, stream, warmup):
        keys = _streams()[stream]
        threshold = 0.05
        reference, expected = _chunked(
            name, keys, lambda sketch, chunk: _reference_flags(sketch, chunk, threshold, warmup)
        )
        tails: list = []
        fused, actual = _chunked(
            name,
            keys,
            lambda sketch, chunk: _classified(sketch, chunk, threshold, warmup, tails),
        )

        assert actual == expected
        assert fused.total == reference.total == len(keys)
        assert fused.export_state() == reference.export_state()
        assert tails == [key for key, hot in zip(keys, expected) if not hot]

    @pytest.mark.parametrize("name", SKETCHES)
    def test_runs_encode_the_same_classification(self, name):
        keys = _streams()["zipf"]
        threshold = 0.05
        reference, expected = _chunked(
            name, keys, lambda sketch, chunk: _reference_flags(sketch, chunk, threshold, 50)
        )

        def runs_of(sketch, chunk):
            tails: list = []
            runs = sketch.add_and_classify_runs(chunk, threshold, 50, tails)
            assert sum(runs) + len(tails) == len(chunk)
            assert len(runs) == len(tails) + 1
            flags = runs_to_flags(runs)
            return [False] * len(tails) if flags is None else flags.tolist()

        run_form, actual = _chunked(name, keys, runs_of)

        assert actual == expected
        assert run_form.total == reference.total

    def test_empty_chunk(self):
        sketch = SpaceSaving(capacity=4)
        assert _classified(sketch, [], 0.1) == []
        assert sketch.add_and_classify_runs([], 0.1) == [0]
        assert runs_to_flags([0]) is None


class TestHeadSignature:
    @pytest.mark.parametrize("name", SKETCHES)
    @pytest.mark.parametrize("stream", ["zipf", "uniform", "bursty"])
    @pytest.mark.parametrize("threshold", [0.01, 0.05, 0.3])
    def test_signature_pins_heavy_hitters_len_and_max(self, name, stream, threshold):
        sketch = _filled(name, _streams()[stream])
        head = sketch.heavy_hitters(threshold)
        expected = (len(head), max(head.values())) if head else (0, 0)
        assert sketch.head_signature(threshold) == expected

    @pytest.mark.parametrize("name", SKETCHES)
    def test_signature_of_empty_sketch(self, name):
        fresh, _ = SKETCHES[name]
        assert fresh().head_signature(0.1) == (0, 0)

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
        sketch = _filled(name, _streams()["zipf"])
        expected = sorted(sketch.heavy_hitters(threshold).values())
        assert sorted(sketch.head_counts(threshold)) == expected

    def test_counts_of_empty_sketch(self):
        assert SpaceSaving(capacity=4).head_counts(0.5) == []
