"""Replay a stream from a plain text file (one key per line).

Users who have access to the original traces (the Wikipedia page-view log is
public; the Twitter samples are not) can feed them to the simulators through
this loader.  Lines are streamed, so arbitrarily large files work in constant
memory.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Iterator

from repro.exceptions import WorkloadError
from repro.types import DatasetStats, Key
from repro.workloads.base import Workload


class FileWorkload(Workload):
    """Keys read line-by-line from a text file.

    Parameters
    ----------
    path:
        Path of the file; every non-empty line is one message key.
    name:
        Human-readable dataset name (defaults to the file name).
    symbol:
        Table I-style symbol (defaults to "FILE").
    key_column:
        When lines are delimited records, the 0-based column holding the key.
        ``None`` (default) uses the whole stripped line.
    delimiter:
        Column separator used when ``key_column`` is given (default: any
        whitespace).
    limit:
        Optional cap on the number of messages read.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        name: str | None = None,
        symbol: str = "FILE",
        key_column: int | None = None,
        delimiter: str | None = None,
        limit: int | None = None,
    ) -> None:
        self._path = os.fspath(path)
        if not os.path.exists(self._path):
            raise WorkloadError(f"workload file not found: {self._path}")
        if limit is not None and limit < 0:
            raise WorkloadError(f"limit must be >= 0, got {limit}")
        self._name = name or os.path.basename(self._path)
        self.symbol = symbol
        self._key_column = key_column
        self._delimiter = delimiter
        self._limit = limit
        self._cached_stats: DatasetStats | None = None

    @property
    def path(self) -> str:
        return self._path

    def keys(self) -> Iterator[Key]:
        produced = 0
        with open(self._path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if self._limit is not None and produced >= self._limit:
                    return
                stripped = line.strip()
                if not stripped:
                    continue
                if self._key_column is None:
                    key = stripped
                else:
                    fields = stripped.split(self._delimiter)
                    if self._key_column >= len(fields):
                        raise WorkloadError(
                            f"line {produced + 1} of {self._path} has no column "
                            f"{self._key_column}: {stripped!r}"
                        )
                    key = fields[self._key_column]
                produced += 1
                yield key

    def iter_batches_columnar(self, batch_size=8192, dictionary=None):
        """Columnar replay: the file's keys, interned a chunk at a time."""
        from repro.workloads.columnar import iter_batches_columnar

        return iter_batches_columnar(self.keys(), batch_size, dictionary)

    def stats(self) -> DatasetStats:
        """Exact statistics; computed once by scanning the file, then cached."""
        if self._cached_stats is None:
            counts: Counter[Key] = Counter()
            total = 0
            for key in self.keys():
                counts[key] += 1
                total += 1
            p1 = counts.most_common(1)[0][1] / total if total else 0.0
            self._cached_stats = DatasetStats(
                name=self._name,
                symbol=self.symbol,
                messages=total,
                keys=len(counts),
                p1=p1,
                description=f"Stream replayed from {self._path}",
            )
        return self._cached_stats
