"""Synthetic stand-ins for the paper's real-world traces.

The original traces (Table I) cannot be redistributed, so each is replaced
by a generator that matches the statistics that matter to load balancing —
the shape of the key-frequency distribution (in particular ``p1``), the
relative key-space size, and the presence or absence of concept drift:

* **WikipediaLikeWorkload (WP)** — page-visit log; published stats: 22 M
  messages, 2.9 M keys, ``p1 = 9.32 %``.  A plain Zipf distribution cannot
  simultaneously give a large key space and such a dominant hottest key, so
  the generator mixes a handful of "celebrity pages" (geometrically decaying
  frequencies, the hottest at 9.3 %) with a Zipf(1.05) body — the classic
  shape of web-access logs.
* **TwitterLikeWorkload (TW)** — words of tweets; 1.2 G messages, 31 M keys,
  ``p1 = 2.67 %``.  Natural-language word frequencies are well modelled by a
  Zipf law with exponent close to 1; we add explicit stop-word-like hot keys
  to pin ``p1`` at the published value.
* **CashtagLikeWorkload (CT)** — 690 k messages over only 2.9 k keys,
  ``p1 = 3.29 %``, with strong concept drift; generated as a drifting Zipf
  stream over a small key space.

Scales default to laptop-friendly values but the published sizes can be
requested explicitly (``full_scale=True``) — everything is streamed, so
memory stays flat.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.analysis.zipf import KeyLaw
from repro.exceptions import WorkloadError
from repro.types import DatasetStats, Key
from repro.workloads.base import Workload, derive_seed
from repro.workloads.drift import DriftingZipfWorkload

_CHUNK = 200_000


class HeadBodyLaw(KeyLaw):
    """Explicit head frequencies followed by a Zipf body (see
    :class:`_HeadBodyWorkload`), over key indices ``0 .. |head| + N - 1``.

    Built in place, in the operation order of ``w = ranks ** -z;
    concatenate([head, w / w.sum() * (1 - sum(head))])`` renormalised by
    its sum: bit-identical to that, with one table-sized array alive.
    """

    def __init__(
        self, head_fractions: tuple[float, ...], num_body_keys: int, body_exponent: float
    ) -> None:
        head_size = len(head_fractions)
        table = np.arange(1, head_size + num_body_keys + 1, dtype=np.float64)
        # Body weights continue the Zipf curve at the ranks below the head.
        body = table[head_size:]
        np.power(body, -body_exponent, out=body)
        body /= body.sum()
        body *= 1.0 - float(sum(head_fractions))
        table[:head_size] = head_fractions
        # Guard against drift in floating point normalisation.
        table /= table.sum()
        super().__init__(table)


class _HeadBodyWorkload(Workload):
    """A stream mixing explicit head frequencies with a Zipf body.

    ``head_fractions`` gives the relative frequency of each hot key
    (``head-0`` is the hottest); the remaining probability mass is spread
    over ``num_body_keys`` keys following a Zipf law with ``body_exponent``.
    The body keys take the Zipf weights of ranks ``|head|+1, |head|+2, ...``
    — i.e. the body *continues* the curve below the head instead of starting
    a fresh one — so the hottest body key stays well below the designated
    head and the published ``p1`` is preserved for any reasonable body size.
    This construction lets us pin ``p1`` exactly while keeping a realistic
    long tail.
    """

    def __init__(
        self,
        name: str,
        symbol: str,
        head_fractions: tuple[float, ...],
        num_body_keys: int,
        body_exponent: float,
        num_messages: int,
        seed: int | str = 0,
        description: str = "",
    ) -> None:
        if num_messages < 0:
            raise WorkloadError(f"num_messages must be >= 0, got {num_messages}")
        if num_body_keys < 1:
            raise WorkloadError(f"num_body_keys must be >= 1, got {num_body_keys}")
        head_mass = float(sum(head_fractions))
        if not 0.0 <= head_mass < 1.0:
            raise WorkloadError(
                f"head fractions must sum to a value in [0, 1), got {head_mass}"
            )
        if any(fraction <= 0.0 for fraction in head_fractions):
            raise WorkloadError("head fractions must all be positive")
        self._name = name
        self.symbol = symbol
        self._head_fractions = tuple(head_fractions)
        self._num_body_keys = num_body_keys
        self._body_exponent = body_exponent
        self._num_messages = num_messages
        self._seed = derive_seed(seed)
        self._description = description
        self._law = HeadBodyLaw.shared(self._head_fractions, num_body_keys, body_exponent)

    @property
    def num_messages(self) -> int:
        return self._num_messages

    @property
    def num_keys(self) -> int:
        return len(self._head_fractions) + self._num_body_keys

    @property
    def probabilities(self) -> np.ndarray:
        """Exact per-key probabilities (head keys first, then the Zipf body)."""
        return self._law.probabilities

    def _key_name(self, index: int) -> str:
        if index < len(self._head_fractions):
            return f"head-{index}"
        return f"key-{index - len(self._head_fractions)}"

    def _draw_chunks(self) -> Iterator[np.ndarray]:
        """The stream as key-index arrays, one per ``_CHUNK``-sized RNG draw.

        Single source of the RNG consumption order: the draws of
        ``rng.choice(num_keys, size, p=probabilities)`` per chunk, from the
        shared law's tables (:meth:`KeyLaw.draw`).
        """
        draw = self._law.draw
        rng = np.random.default_rng(self._seed)
        remaining = self._num_messages
        while remaining > 0:
            size = min(_CHUNK, remaining)
            yield draw(size, rng)
            remaining -= size

    def keys(self) -> Iterator[Key]:
        for draws in self._draw_chunks():
            yield from map(self._key_name, draws.tolist())

    def iter_batches_columnar(self, batch_size=8192, dictionary=None):
        """Native columnar stream: only each chunk's *distinct* draw values
        go through :meth:`_key_name`; the per-message scatter is numpy."""
        from repro.workloads.columnar import ColumnarBatch, KeyDictionary

        dictionary = dictionary if dictionary is not None else KeyDictionary()
        index = 0
        for draws in self._draw_chunks():
            ids = dictionary.intern_mapped_array(draws, self._key_name)
            for start in range(0, draws.size, batch_size):
                yield ColumnarBatch(
                    ids[start : start + batch_size], dictionary, index + start
                )
            index += draws.size

    def stats(self) -> DatasetStats:
        return DatasetStats(
            name=self._name,
            symbol=self.symbol,
            messages=self._num_messages,
            keys=self.num_keys,
            p1=float(self._law.probabilities.max()),
            description=self._description,
        )


class WikipediaLikeWorkload(_HeadBodyWorkload):
    """Synthetic stand-in for the WP trace (p1 ≈ 9.3 %).

    Default scale: 2 * 10^6 messages over ~10^5 keys (the published trace has
    22 M messages over 2.9 M keys; the imbalance metric is normalised so the
    scale-down preserves the comparison shape).
    """

    #: Relative frequencies of the few extremely hot pages (front page,
    #: current-events page, ...), decaying geometrically from the published
    #: p1 of 9.32 %.
    _HEAD = (0.0932, 0.031, 0.016, 0.009, 0.005)

    def __init__(
        self,
        num_messages: int = 2_000_000,
        num_body_keys: int = 100_000,
        seed: int | str = 0,
        full_scale: bool = False,
    ) -> None:
        if full_scale:
            num_messages = 22_000_000
            num_body_keys = 2_900_000
        super().__init__(
            name="Wikipedia-like",
            symbol="WP",
            head_fractions=self._HEAD,
            num_body_keys=num_body_keys,
            body_exponent=1.05,
            num_messages=num_messages,
            seed=seed,
            description=(
                "Synthetic page-visit log matching the published p1 of the "
                "WP trace (9.32%) with a Zipf(1.05) body."
            ),
        )


class TwitterLikeWorkload(_HeadBodyWorkload):
    """Synthetic stand-in for the TW trace (words of tweets, p1 ≈ 2.7 %).

    Default scale: 2 * 10^6 messages over ~2 * 10^5 keys (published: 1.2 G
    messages over 31 M keys).
    """

    #: Stop-word-like hot keys, hottest at the published p1 of 2.67 %.
    _HEAD = (0.0267, 0.021, 0.017, 0.013, 0.011, 0.009, 0.007, 0.006)

    def __init__(
        self,
        num_messages: int = 2_000_000,
        num_body_keys: int = 200_000,
        seed: int | str = 0,
        full_scale: bool = False,
    ) -> None:
        if full_scale:
            num_messages = 1_200_000_000
            num_body_keys = 31_000_000
        super().__init__(
            name="Twitter-like",
            symbol="TW",
            head_fractions=self._HEAD,
            num_body_keys=num_body_keys,
            body_exponent=1.0,
            num_messages=num_messages,
            seed=seed,
            description=(
                "Synthetic word stream matching the published p1 of the TW "
                "trace (2.67%) with a Zipf(1.0) body."
            ),
        )


class CashtagLikeWorkload(Workload):
    """Synthetic stand-in for the CT trace (cashtags, strong concept drift).

    The published trace has 690 k messages over 2.9 k keys with p1 = 3.29 %,
    and the paper highlights its drastic distribution changes over time.
    We reproduce it as a drifting Zipf stream over the same (small) key space
    with hourly epochs and full head rotation.
    """

    symbol = "CT"

    def __init__(
        self,
        num_messages: int = 690_000,
        num_keys: int = 2_900,
        num_hours: int = 80,
        exponent: float = 0.8,
        seed: int | str = 0,
    ) -> None:
        self._inner = DriftingZipfWorkload(
            exponent=exponent,
            num_keys=num_keys,
            num_messages=num_messages,
            num_epochs=num_hours,
            drift_fraction=1.0,
            seed=seed,
        )

    @property
    def num_messages(self) -> int:
        return self._inner.num_messages

    @property
    def num_epochs(self) -> int:
        return self._inner.num_epochs

    def epoch_of_message(self, index: int) -> int:
        return self._inner.epoch_of_message(index)

    def keys(self) -> Iterator[Key]:
        return self._inner.keys()

    def iter_batches(self, batch_size: int = 8192):
        return self._inner.iter_batches(batch_size)

    def iter_batches_columnar(self, batch_size=8192, dictionary=None):
        return self._inner.iter_batches_columnar(batch_size, dictionary)

    def stats(self) -> DatasetStats:
        inner = self._inner.stats()
        return DatasetStats(
            name="Cashtag-like",
            symbol=self.symbol,
            messages=inner.messages,
            keys=inner.keys,
            p1=inner.p1,
            description=(
                "Synthetic cashtag stream: small key space, moderate skew, "
                "strong hourly concept drift (the head rotates every epoch)."
            ),
        )
