"""Render layer of the scenario catalog: truth → arrival sequence.

A *render* describes **how the traffic arrives** — the arrival order,
burstiness and duplication of the messages — for a popularity process it
knows nothing about.  Renderers consume the epochs of a
:class:`~repro.scenarios.truth.Truth` and emit numpy key arrays ("spans"),
drawing all randomness from a render RNG that is seeded independently of
the truth (``derive_seed(scenario_name, "render", seed)``), so the same
truth can be rendered several ways — and re-rendering with a different
style never changes what the keys *are*, only when they show up.

Determinism contract: a renderer's RNG consumption depends only on the
truth's epoch lengths and the render parameters — never on downstream
chunking — so the stream is byte-identical for every ``batch_size`` and
representation (scalar / batched / columnar), which the property suite
pins for every scheme.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator

import numpy as np

from repro.analysis.zipf import inverse_cdf_draws, sampling_cdf
from repro.exceptions import ScenarioError

#: Spans are drawn in fixed-size chunks so huge epochs never materialise at
#: once and the RNG consumption order is independent of consumer chunking.
_CHUNK = 200_000


class Renderer(abc.ABC):
    """Abstract arrival-order renderer."""

    @abc.abstractmethod
    def spans(
        self,
        epochs: "Iterator[tuple[int, np.ndarray]]",
        rng: np.random.Generator,
    ) -> Iterator[np.ndarray]:
        """Yield the stream as int64 key arrays (identities ``1..K``).

        The concatenation of all spans is the rendered stream; span
        boundaries are an implementation detail.
        """


class IidRenderer(Renderer):
    """Memoryless arrivals: every message drawn i.i.d. from the epoch truth.

    The render of the paper's synthetic experiments — no burstiness, no
    duplication; arrival order carries no information beyond the epoch
    schedule.
    """

    def spans(self, epochs, rng):
        for length, probabilities in epochs:
            cdf = sampling_cdf(probabilities)
            remaining = length
            while remaining > 0:
                size = min(_CHUNK, remaining)
                yield inverse_cdf_draws(cdf, rng.random(size)) + 1
                remaining -= size


class BurstyRenderer(Renderer):
    """Run-length duplicated arrivals: each drawn event repeats back-to-back.

    Each underlying *event* is drawn from the truth and then emitted
    ``burst_length`` times consecutively — the repeat pattern of retries,
    fan-out republication and hiccuping producers.  Per-key *totals* keep
    the truth's expectations (every key's mass is scaled equally), but the
    arrival autocorrelation concentrates load into runs, stressing the
    local load estimates of two-choice schemes.
    """

    def __init__(self, burst_length: int = 4) -> None:
        if burst_length < 1:
            raise ScenarioError(
                f"burst_length must be >= 1, got {burst_length}"
            )
        self.burst_length = burst_length

    def spans(self, epochs, rng):
        burst = self.burst_length
        for length, probabilities in epochs:
            cdf = sampling_cdf(probabilities)
            remaining = length
            while remaining > 0:
                size = min(_CHUNK, remaining)
                events = inverse_cdf_draws(cdf, rng.random(-(-size // burst))) + 1
                yield np.repeat(events, burst)[:size]
                remaining -= size


class ShuffledEpochRenderer(Renderer):
    """Quota arrivals: exact per-epoch key counts, shuffled order.

    Each epoch's key counts are drawn once (multinomially) and the
    messages then arrive in a uniformly shuffled order — the *frequencies*
    carry no sampling noise beyond the multinomial draw, isolating a
    scheme's placement behaviour from draw-by-draw variance.
    """

    def spans(self, epochs, rng):
        for length, probabilities in epochs:
            remaining = length
            while remaining > 0:
                size = min(_CHUNK, remaining)
                counts = rng.multinomial(size, probabilities)
                span = np.repeat(np.arange(1, probabilities.size + 1), counts)
                rng.shuffle(span)
                yield span
                remaining -= size


#: Render style name -> renderer factory (kwargs from the spec's render
#: options).  ``iid`` is the default style of every cataloged scenario.
RENDERERS: dict[str, Callable[..., Renderer]] = {
    "iid": IidRenderer,
    "bursty": BurstyRenderer,
    "shuffled_epoch": ShuffledEpochRenderer,
}


def make_renderer(
    style: str, options: dict | None = None, *, scenario: str | None = None
) -> Renderer:
    """Instantiate the renderer for ``style``; unknown styles fail loudly."""
    factory = RENDERERS.get(style)
    if factory is None:
        prefix = f"scenario {scenario!r}: " if scenario else ""
        raise ScenarioError(
            f"{prefix}unknown render style {style!r}; valid styles: "
            f"{sorted(RENDERERS)}"
        )
    try:
        return factory(**(options or {}))
    except TypeError as exc:
        prefix = f"scenario {scenario!r}: " if scenario else ""
        raise ScenarioError(
            f"{prefix}invalid render options for style {style!r}: {exc}"
        ) from exc
