"""In-memory spans recorded by the harness around its calls into each layer.

A span is ``{name, start, end, parent, trial, counts}``: ``parent`` is the
index of the span that was open when it started (``None`` for a root),
``trial`` groups the spans of one (round, scheme) and ``counts`` holds the
work counted at the same boundary.  Spans are kept in memory and written
out once, when the run ends, so recording never touches the disk inside a
timed interval.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial: str, **counts):
        """Record the enclosed block; yields the span so counts can be added."""
        record = {
            "name": name,
            "trial": trial,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
            "counts": counts,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def seconds(record: dict) -> float:
    return record["end"] - record["start"]


def self_seconds(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [seconds(record) for record in spans]
    for record in spans:
        if record["parent"] is not None:
            own[record["parent"]] -= seconds(record)
    return own
