"""Parallel orchestration of the full experiment suite.

The orchestrator discovers every experiment registered in
:mod:`repro.experiments.registry`, builds one independent *cell* per
(experiment, scale, config) triple, checks the content-addressed
:class:`~repro.suite.store.ResultsStore` for each, and shards the misses
across a ``multiprocessing`` pool.  Records land on disk as soon as each
cell completes, so an interrupted run resumes where it stopped — the next
invocation cache-hits the finished cells and recomputes only the rest.

Every cell routes its streams through the engine's columnar id path: the
configs of the simulation-backed experiments carry a ``batch_size`` (the
chunk length of ``SimulationConfig.mode``), and the orchestrator's
``batch_size`` argument overrides it suite-wide (results are identical for
every value, so the store fingerprint ignores it).
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import SCALES
from repro.experiments.registry import get_experiment, list_experiments
from repro.suite.store import ResultRecord, ResultsStore, config_fingerprint

#: ``progress(outcome, done, total)`` — invoked once per finished cell.
ProgressCallback = Callable[["CellOutcome", int, int], None]


@dataclass(slots=True)
class CellOutcome:
    """What happened to one (experiment, scale) cell during a suite run."""

    experiment_id: str
    scale: str
    fingerprint: str
    #: "cached" (store hit), "computed" (ran now) or "failed".
    status: str
    elapsed_seconds: float = 0.0
    rows: int = 0
    path: str | None = None
    #: Full traceback text of a failed cell (``error_summary`` for one line).
    error: str | None = None

    @property
    def error_summary(self) -> str | None:
        """The last line of the failure (what progress lines display)."""
        if self.error is None:
            return None
        return self.error.strip().splitlines()[-1]


@dataclass(slots=True)
class SuiteSummary:
    """Aggregate outcome of one ``run_suite`` invocation."""

    scale: str
    outcomes: list[CellOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def ok(self) -> bool:
        return self.count("failed") == 0

    def as_rows(self) -> list[dict[str, Any]]:
        """One summary row per cell (for tables and export)."""
        return [
            {
                "experiment": outcome.experiment_id,
                "scale": outcome.scale,
                "status": outcome.status,
                "rows": outcome.rows,
                "seconds": round(outcome.elapsed_seconds, 3),
                "fingerprint": outcome.fingerprint[:16],
            }
            for outcome in self.outcomes
        ]

    def as_result(self) -> ExperimentResult:
        """The summary wrapped as an ExperimentResult, for the exporters."""
        result = ExperimentResult(
            experiment_id="suite",
            title=f"Suite run at scale {self.scale!r}",
            parameters={
                "scale": self.scale,
                "cells": len(self.outcomes),
                "computed": self.count("computed"),
                "cached": self.count("cached"),
                "failed": self.count("failed"),
                "elapsed_seconds": round(self.elapsed_seconds, 3),
            },
            rows=self.as_rows(),
        )
        for outcome in self.outcomes:
            if outcome.error:
                result.notes.append(
                    f"{outcome.experiment_id} failed: {outcome.error_summary}"
                )
        return result


def _execute_cell(experiment_id: str, scale: str, batch_size: int | None) -> dict[str, Any]:
    """Run one cell; top-level so the process pool can pickle it.

    The configuration is rebuilt from the registry inside the worker (the
    factories are pure, so parent and worker agree on the fingerprint) and
    errors are returned as payloads rather than raised, keeping one broken
    experiment from sinking the whole suite.
    """
    try:
        entry = get_experiment(experiment_id)
        descriptor = entry.descriptor
        config = descriptor.configure(scale, batch_size)
        started = time.perf_counter()
        result = descriptor.run(config)
        elapsed = time.perf_counter() - started
        return {
            "experiment_id": experiment_id,
            "elapsed": elapsed,
            "config": descriptor.config_dict(config),
            "result": result.to_dict(),
        }
    except Exception:
        return {"experiment_id": experiment_id, "error": traceback.format_exc(limit=8)}


def _record_outcome(
    store: ResultsStore,
    scale: str,
    fingerprint: str,
    payload: dict[str, Any],
) -> CellOutcome:
    """Persist one computed cell and describe what happened."""
    experiment_id = payload["experiment_id"]
    if "error" in payload:
        return CellOutcome(
            experiment_id=experiment_id,
            scale=scale,
            fingerprint=fingerprint,
            status="failed",
            error=payload["error"].strip(),
        )
    record = ResultRecord(
        experiment_id=experiment_id,
        scale=scale,
        fingerprint=fingerprint,
        config=payload["config"],
        result=payload["result"],
        elapsed_seconds=payload["elapsed"],
    )
    try:
        path = store.save(record)
    except PermissionError as exc:
        # A results dir created with a different umask/owner rejects the
        # atomic rename; that is this cell's failure, not the suite's.
        return CellOutcome(
            experiment_id=experiment_id,
            scale=scale,
            fingerprint=fingerprint,
            status="failed",
            elapsed_seconds=payload["elapsed"],
            error=f"results store write failed: {exc}",
        )
    return CellOutcome(
        experiment_id=experiment_id,
        scale=scale,
        fingerprint=fingerprint,
        status="computed",
        elapsed_seconds=payload["elapsed"],
        rows=record.num_rows(),
        path=str(path),
    )


def run_suite(
    experiment_ids: Sequence[str] | None = None,
    scale: str = "quick",
    jobs: int | None = None,
    store: ResultsStore | None = None,
    force: bool = False,
    batch_size: int | None = None,
    progress: ProgressCallback | None = None,
) -> SuiteSummary:
    """Run (or resume) the experiment suite and return the summary.

    Parameters
    ----------
    experiment_ids:
        Which experiments to run; ``None`` means every registered one.
    scale:
        Parameter scale of every cell: "tiny", "quick" or "paper".
    jobs:
        Worker processes; ``None`` picks ``min(cells, cpu_count)``.  1 runs
        the cells inline (no pool), which is what the tests use to exercise
        failure paths deterministically.
    store:
        The results store; ``None`` uses the default ``results/`` directory.
    force:
        Recompute every cell even when the store already has its record.
    batch_size:
        Overrides the routing batch size of every config that has one.
        Results are bit-identical for any value, so cache keys ignore it.
    progress:
        Called as ``progress(outcome, done, total)`` after every cell.
    """
    if scale not in SCALES:
        raise ConfigurationError(f"scale must be one of {SCALES}, got {scale!r}")
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    store = store if store is not None else ResultsStore()

    # An explicitly empty subset means "nothing to do", not "everything".
    if experiment_ids is None:
        identifiers = list(list_experiments())
    else:
        identifiers = list(experiment_ids)
    started = time.perf_counter()
    summary = SuiteSummary(scale=scale)
    total = len(identifiers)
    done = 0

    def _emit(outcome: CellOutcome) -> None:
        nonlocal done
        done += 1
        summary.outcomes.append(outcome)
        if progress is not None:
            progress(outcome, done, total)

    # Fingerprint every cell up front (configs are cheap to build) and
    # satisfy what we can from the store.
    pending: list[tuple[str, str]] = []  # (experiment_id, fingerprint)
    for identifier in identifiers:
        entry = get_experiment(identifier)
        descriptor = entry.descriptor
        fingerprint = config_fingerprint(
            descriptor.experiment_id, scale, descriptor.config_dict(descriptor.config(scale))
        )
        cached = None if force else store.load(descriptor.experiment_id, scale, fingerprint)
        if cached is not None:
            _emit(
                CellOutcome(
                    experiment_id=descriptor.experiment_id,
                    scale=scale,
                    fingerprint=fingerprint,
                    status="cached",
                    elapsed_seconds=cached.elapsed_seconds,
                    rows=cached.num_rows(),
                    path=str(store.path_for(descriptor.experiment_id, scale, fingerprint)),
                )
            )
        else:
            pending.append((descriptor.experiment_id, fingerprint))

    if pending:
        if jobs is None:
            jobs = min(len(pending), os.cpu_count() or 1)
        if jobs == 1:
            for experiment_id, fingerprint in pending:
                payload = _execute_cell(experiment_id, scale, batch_size)
                _emit(_record_outcome(store, scale, fingerprint, payload))
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_execute_cell, experiment_id, scale, batch_size): (
                        experiment_id,
                        fingerprint,
                    )
                    for experiment_id, fingerprint in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in finished:
                        experiment_id, fingerprint = futures[future]
                        try:
                            payload = future.result()
                        except Exception as exc:
                            # A worker that died hard (OOM kill, segfault)
                            # surfaces as BrokenProcessPool here; keep it
                            # from sinking the rest of the suite.
                            payload = {
                                "experiment_id": experiment_id,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                        _emit(_record_outcome(store, scale, fingerprint, payload))

    summary.elapsed_seconds = time.perf_counter() - started
    return summary
