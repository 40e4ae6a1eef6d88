"""Reports over the suite results store.

Turns the JSON records written by the orchestrator into terminal artifacts:
a per-record summary table, a runtime bar chart, and — with ``charts=True``
— the per-experiment ASCII figure declared by each descriptor's
:class:`~repro.experiments.descriptor.OutputSpec`.
"""

from __future__ import annotations

import os
from typing import Any

from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentResult, format_table
from repro.experiments.registry import get_experiment
from repro.reporting.ascii_chart import ascii_bar_chart
from repro.suite.store import ResultsStore, config_fingerprint, current_code_digest


def _artifact_for(experiment_id: str) -> str:
    try:
        return get_experiment(experiment_id).artifact
    except ConfigurationError:
        return "?"  # stale record of an unregistered experiment


def _is_current(record) -> str:
    """"yes" when the record matches today's config and code for its cell.

    A "no" marks a stale record: the experiment's scale changed (or the
    experiment was unregistered) since the record was computed, so the next
    ``suite run`` will compute a fresh cell and leave this one behind; or
    other code computed it, so the next run recomputes and overwrites it.
    """
    if record.code_digest != current_code_digest():
        return "no"
    try:
        descriptor = get_experiment(record.experiment_id)
        expected = config_fingerprint(
            record.experiment_id,
            record.scale,
            descriptor.config_dict(descriptor.config(record.scale)),
        )
    except ConfigurationError:
        return "no"
    return "yes" if expected == record.fingerprint else "no"


def _records(store: ResultsStore, scale: str | None) -> list:
    return [
        record
        for record in store.iter_records()
        if scale is None or record.scale == scale
    ]


def _summary_rows(records) -> list[dict[str, Any]]:
    return [
        {
            "experiment": record.experiment_id,
            "artifact": _artifact_for(record.experiment_id),
            "scale": record.scale,
            "rows": record.num_rows(),
            "seconds": round(record.elapsed_seconds, 3),
            "current": _is_current(record),
            "created_at": record.created_at,
            "fingerprint": record.fingerprint[:16],
        }
        for record in records
    ]


def report_rows(store: ResultsStore, scale: str | None = None) -> list[dict[str, Any]]:
    """One summary row per stored record (optionally filtered by scale)."""
    return _summary_rows(_records(store, scale))


def render_report(
    store: ResultsStore,
    scale: str | None = None,
    charts: bool = False,
) -> str:
    """The ``suite report`` text: summary table, runtimes, optional figures."""
    records = _records(store, scale)
    if not records:
        where = f" at scale {scale!r}" if scale else ""
        return f"no records{where} in {store.root}/ — run `suite run` first"

    rows = _summary_rows(records)
    sections = [format_table(rows)]

    # One bar per record; disambiguate by fingerprint when the store holds
    # several records for the same (experiment, scale) — e.g. after a preset
    # changed — so the chart never silently drops a row of the table.
    cells = [f"{row['experiment']}/{row['scale']}" for row in rows]
    runtimes = {
        cell if cells.count(cell) == 1 else f"{cell}@{row['fingerprint'][:6]}":
            max(float(row["seconds"]), 1e-3)
        for cell, row in zip(cells, rows)
    }
    sections.append("compute seconds per record (cached runs pay none of this):")
    sections.append(ascii_bar_chart(runtimes, unit="s"))

    if charts:
        for record in records:
            try:
                spec = get_experiment(record.experiment_id).output
            except ConfigurationError:
                continue
            chart = spec.render(ExperimentResult.from_dict(record.result))
            if chart:
                sections.append(
                    f"-- {record.experiment_id} ({_artifact_for(record.experiment_id)}) --"
                )
                sections.append(chart)

    return "\n\n".join(sections)


def export_report(
    store: ResultsStore,
    path: str | os.PathLike[str],
    scale: str | None = None,
) -> str:
    """Write the summary rows to ``path`` (.csv or .json); return the path."""
    from repro.reporting.export import write_result

    result = ExperimentResult(
        experiment_id="suite-report",
        title="Suite results store summary",
        parameters={"store": str(store.root), "scale": scale or "all"},
        rows=report_rows(store, scale=scale),
    )
    return write_result(result, path)
