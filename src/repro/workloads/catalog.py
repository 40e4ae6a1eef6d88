"""Dataset catalog (Table I).

Maps the dataset symbols used throughout the paper (WP, TW, CT, ZF) to the
workload generators of this reproduction and records both the statistics
published in Table I and the statistics of our synthetic stand-ins.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.exceptions import WorkloadError
from repro.types import DatasetStats
from repro.workloads.base import Workload
from repro.workloads.synthetic import (
    CashtagLikeWorkload,
    TwitterLikeWorkload,
    WikipediaLikeWorkload,
)
from repro.workloads.zipf_stream import ZipfWorkload


@dataclass(frozen=True, slots=True)
class DatasetEntry:
    """One row of the catalog: published stats + a factory for our stand-in."""

    symbol: str
    name: str
    #: Statistics as published in Table I of the paper.
    published: DatasetStats
    #: Factory building the synthetic stand-in at its default (scaled) size.
    factory: Callable[..., Workload]
    #: Why the substitution preserves the behaviour the experiments measure.
    substitution_note: str


DATASETS: dict[str, DatasetEntry] = {
    "WP": DatasetEntry(
        symbol="WP",
        name="Wikipedia",
        published=DatasetStats(
            name="Wikipedia",
            symbol="WP",
            messages=22_000_000,
            keys=2_900_000,
            p1=0.0932,
            description="Page-visit log of one day of January 2008.",
        ),
        factory=WikipediaLikeWorkload,
        substitution_note=(
            "Synthetic page-visit stream with the published p1 (9.32%) and a "
            "Zipf body; scaled to 2M messages / 1e5 keys by default."
        ),
    ),
    "TW": DatasetEntry(
        symbol="TW",
        name="Twitter",
        published=DatasetStats(
            name="Twitter",
            symbol="TW",
            messages=1_200_000_000,
            keys=31_000_000,
            p1=0.0267,
            description="Words of tweets crawled during July 2012.",
        ),
        factory=TwitterLikeWorkload,
        substitution_note=(
            "Synthetic word stream with the published p1 (2.67%); scaled to "
            "2M messages / 2e5 keys by default."
        ),
    ),
    "CT": DatasetEntry(
        symbol="CT",
        name="Cashtags",
        published=DatasetStats(
            name="Cashtags",
            symbol="CT",
            messages=690_000,
            keys=2_900,
            p1=0.0329,
            description="Cashtags of tweets crawled in November 2013.",
        ),
        factory=CashtagLikeWorkload,
        substitution_note=(
            "Drifting Zipf stream over the same key-space size with hourly "
            "full head rotation, reproducing the trace's concept drift."
        ),
    ),
    "ZF": DatasetEntry(
        symbol="ZF",
        name="Zipf",
        published=DatasetStats(
            name="Zipf",
            symbol="ZF",
            messages=10_000_000,
            keys=10_000,
            p1=float("nan"),
            description="Synthetic Zipf streams, z in {0.1..2.0}.",
        ),
        factory=ZipfWorkload,
        substitution_note="Generated exactly as in the paper (no substitution).",
    ),
}


def dataset_stats(symbol: str) -> DatasetStats:
    """Published Table I statistics for ``symbol``."""
    entry = DATASETS.get(symbol.upper())
    if entry is None:
        raise WorkloadError(
            f"unknown dataset symbol {symbol!r}; known: {sorted(DATASETS)}"
        )
    return entry.published


def load_dataset(symbol: str, **kwargs) -> Workload:
    """Instantiate the stand-in workload for ``symbol``.

    Keyword arguments are forwarded to the generator (e.g. ``num_messages``,
    ``seed``; ``exponent``/``num_keys`` for ZF).  Unknown symbols *and*
    keyword arguments the generator does not accept raise
    :class:`~repro.exceptions.WorkloadError` — a typo like
    ``num_mesages=...`` must not silently build a default-sized stream.

    Examples
    --------
    >>> workload = load_dataset("ZF", exponent=1.2, num_keys=1000, num_messages=10)
    >>> workload.symbol
    'ZF'
    """
    return _checked_entry(symbol, kwargs).factory(**kwargs)


def _checked_entry(symbol: str, kwargs: Mapping[str, Any]):
    """The catalog entry of ``symbol``, once ``kwargs`` bind to its factory."""
    entry = DATASETS.get(symbol.upper())
    if entry is None:
        raise WorkloadError(
            f"unknown dataset symbol {symbol!r}; known: {sorted(DATASETS)}"
        )
    try:
        # bind_partial: reject unknown keyword arguments while leaving
        # missing-required errors to the factory itself (unchanged behaviour).
        inspect.signature(entry.factory).bind_partial(**kwargs)
    except TypeError as exc:
        raise WorkloadError(
            f"invalid arguments for dataset {entry.symbol!r} "
            f"({entry.factory.__name__}): {exc}"
        ) from exc
    return entry


def table1_rows(
    measured: bool = False,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
    **kwargs,
) -> list[dict[str, object]]:
    """Rows of Table I.

    With ``measured=False`` (default) the published statistics are returned.
    With ``measured=True`` the synthetic stand-ins are generated and
    measured exactly; note this consumes the full streams.  ``overrides``
    maps dataset symbols to factory keyword arguments, so tests can shrink
    individual streams, e.g. ``overrides={"WP": {"num_messages": 100_000}}``
    (arguments are validated like :func:`load_dataset`, every dataset's
    before any stream is generated).  Bare ``kwargs`` configure the ZF
    stand-in only (backwards-compatible behaviour).
    """
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(DATASETS))
    if unknown:
        raise WorkloadError(
            f"unknown dataset symbols in overrides: {unknown}; "
            f"known: {sorted(DATASETS)}"
        )
    if not measured:
        return [entry.published.as_row() for entry in DATASETS.values()]
    arguments = {symbol: dict(overrides.get(symbol, {})) for symbol in DATASETS}
    zf = arguments["ZF"]
    zf.setdefault("exponent", kwargs.get("exponent", 2.0))
    zf.setdefault("num_keys", kwargs.get("num_keys", 10_000))
    zf.setdefault("num_messages", kwargs.get("num_messages", 100_000))
    entries = [_checked_entry(symbol, args) for symbol, args in arguments.items()]
    return [
        entry.factory(**arguments[symbol]).measured_stats().as_row()
        for symbol, entry in zip(arguments, entries)
    ]
