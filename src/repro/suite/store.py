"""Content-addressed store for suite results.

Each record holds the full :class:`~repro.experiments.common.ExperimentResult`
of one (experiment, scale, config) cell, addressed by a SHA-256 fingerprint
of the canonical config JSON.  Identical configurations therefore map to the
same record: re-running a cell is a cache hit, and an interrupted suite run
resumes from whatever records already landed on disk.

Layout on disk (human-browsable by design)::

    results/
      fig1/
        tiny-5a41f2c09cd81e77.json
        paper-91bd0a63f02c55aa.json
      fig13/
        ...

The file name carries a truncated fingerprint for readability; the full
fingerprint is stored (and verified) inside the record, beside the digest of
the code that computed it (:func:`current_code_digest`): a record written by
other code is a miss, recomputed and overwritten.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.descriptor import NON_SEMANTIC_FIELDS

#: Bump when the record schema changes incompatibly; readers skip records
#: with a different version instead of failing.
RECORD_VERSION = 1

#: Default store location, relative to the working directory.
DEFAULT_ROOT = "results"

#: File names the store owns: ``<scale>-<fingerprint[:16]>.json``.  Both
#: :meth:`ResultsStore.iter_records` and :meth:`ResultsStore.clear` are
#: scoped to this pattern so foreign JSON files under the root (a user
#: pointing ``--results-dir`` at a populated directory) are never touched.
_RECORD_NAME = re.compile(r"[a-z]+-[0-9a-f]{16}\.json\Z")


@functools.cache
def current_code_digest() -> str:
    """SHA-256 over the package's source, taken once per process.

    Every ``repro/**/*.py`` in path order, each as its relative path, its
    length and its bytes.  A record keeps the digest of the code that
    computed it, so a change to any module turns every stored cell into a
    miss instead of serving results the code no longer computes.
    """
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.relative_to(package).as_posix()}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def config_fingerprint(
    experiment_id: str,
    scale: str,
    config: Mapping[str, Any],
    exclude: frozenset[str] = NON_SEMANTIC_FIELDS,
) -> str:
    """SHA-256 fingerprint of one (experiment, scale, config) cell.

    The hash covers the canonical (sorted-keys, compact) JSON of the
    identifying triple.  Fields in ``exclude`` — by default the execution
    ``mode``, which is bit-identical for every value — are dropped first,
    so purely-performance knobs do not invalidate cached results.
    """
    semantic = {key: value for key, value in config.items() if key not in exclude}
    canonical = json.dumps(
        {"experiment_id": experiment_id, "scale": scale, "config": semantic},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(slots=True)
class ResultRecord:
    """One persisted suite cell: config, result payload and provenance."""

    experiment_id: str
    scale: str
    fingerprint: str
    config: dict[str, Any]
    result: dict[str, Any]
    elapsed_seconds: float
    created_at: str = ""
    record_version: int = RECORD_VERSION
    extra: dict[str, Any] = field(default_factory=dict)
    #: :func:`current_code_digest` of the code that computed the result;
    #: ``None`` stamps this process's.
    code_digest: str | None = None

    def __post_init__(self) -> None:
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        if self.code_digest is None:
            self.code_digest = current_code_digest()

    def num_rows(self) -> int:
        return len(self.result.get("rows", []))

    def to_json(self) -> str:
        return json.dumps(
            {
                "record_version": self.record_version,
                "experiment_id": self.experiment_id,
                "scale": self.scale,
                "fingerprint": self.fingerprint,
                "code_digest": self.code_digest,
                "created_at": self.created_at,
                "elapsed_seconds": self.elapsed_seconds,
                "config": self.config,
                "result": self.result,
                "extra": self.extra,
            },
            indent=2,
            sort_keys=False,
        )

    @classmethod
    def from_json(cls, payload: str) -> "ResultRecord":
        document = json.loads(payload)
        return cls(
            experiment_id=document["experiment_id"],
            scale=document["scale"],
            fingerprint=document["fingerprint"],
            config=document.get("config", {}),
            result=document.get("result", {}),
            elapsed_seconds=float(document.get("elapsed_seconds", 0.0)),
            created_at=document.get("created_at", ""),
            record_version=int(document.get("record_version", 0)),
            extra=document.get("extra", {}),
            code_digest=document.get("code_digest", ""),
        )


class ResultsStore:
    """Filesystem-backed, content-addressed store of suite records."""

    def __init__(self, root: str | os.PathLike[str] = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    def path_for(self, experiment_id: str, scale: str, fingerprint: str) -> Path:
        """Where the record of one cell lives (existing or not)."""
        return self.root / experiment_id / f"{scale}-{fingerprint[:16]}.json"

    def load(self, experiment_id: str, scale: str, fingerprint: str) -> ResultRecord | None:
        """The stored record of a cell, or ``None`` on a cache miss.

        Unreadable or fingerprint-mismatched files (hand-edited, truncated
        by a crash, or written by an incompatible version) count as misses
        so the orchestrator recomputes instead of failing, and so does a
        record computed by other code (its ``code_digest`` differs).
        """
        path = self.path_for(experiment_id, scale, fingerprint)
        record = self._read(path)
        if (
            record is None
            or record.fingerprint != fingerprint
            or record.code_digest != current_code_digest()
        ):
            return None
        return record

    def save(self, record: ResultRecord) -> Path:
        """Persist a record atomically (write-to-temp + rename).

        Raises whatever the filesystem raises (``PermissionError`` on a
        results dir created with a restrictive umask, ``OSError`` on a full
        disk ...) after cleaning up the temporary file; the orchestrator
        turns that into a per-cell failure instead of sinking the whole
        suite run.
        """
        path = self.path_for(record.experiment_id, record.scale, record.fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(f".tmp.{os.getpid()}")
        temporary.write_text(record.to_json(), encoding="utf-8")
        try:
            os.replace(temporary, path)
        except OSError:
            try:
                temporary.unlink()
            except OSError:
                pass  # the temp file is unreachable too; nothing to clean
            raise
        return path

    def iter_records(self) -> Iterator[ResultRecord]:
        """Every readable record in the store, sorted by path."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            if not _RECORD_NAME.fullmatch(path.name):
                continue
            record = self._read(path)
            if record is not None:
                yield record

    def clear(self, experiment_ids: Sequence[str] | None = None) -> int:
        """Delete records (all, or only the given experiments); return count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        wanted = None if experiment_ids is None else {e.lower() for e in experiment_ids}
        for directory in sorted(self.root.iterdir()):
            if not directory.is_dir():
                continue
            if wanted is not None and directory.name.lower() not in wanted:
                continue
            for path in directory.glob("*.json"):
                if not _RECORD_NAME.fullmatch(path.name):
                    continue  # not a suite record; never delete foreign files
                path.unlink()
                removed += 1
            try:
                directory.rmdir()
            except OSError:
                pass  # non-record files remain; leave the directory
        return removed

    def _read(self, path: Path) -> ResultRecord | None:
        try:
            record = ResultRecord.from_json(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError):
            return None
        if record.record_version != RECORD_VERSION:
            return None
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultsStore(root={str(self.root)!r})"


def open_store(root: str | os.PathLike[str] | None) -> ResultsStore:
    """Build a store for ``root`` (``None`` → the default ``results/``)."""
    if root is not None and Path(root).is_file():
        raise ConfigurationError(f"results dir {root!r} is a file, not a directory")
    return ResultsStore(root if root is not None else DEFAULT_ROOT)
