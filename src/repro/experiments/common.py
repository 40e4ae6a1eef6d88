"""Shared plumbing for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.execution import ExecutionMode, ModeLike, SenderGroup, spans
from repro.partitioning.base import Partitioner
from repro.types import Key, WorkerId


@dataclass(slots=True)
class ExperimentResult:
    """The output of one experiment driver.

    Attributes
    ----------
    experiment_id:
        Identifier such as "fig1", "fig10", "table1".
    title:
        Human-readable description of the paper artefact being reproduced.
    parameters:
        The configuration the experiment ran with (for the record in
        EXPERIMENTS.md).
    rows:
        One dictionary per data point / table row.  Keys are column names.
    notes:
        Free-form remarks (e.g. which paper observation the rows support).
    """

    experiment_id: str
    title: str
    parameters: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def column_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def series(self, key_column: str, value_column: str) -> dict[Any, Any]:
        """Extract one plotted series as ``{x: y}``."""
        return {row[key_column]: row[value_column] for row in self.rows if value_column in row}

    def filtered(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching all the given column=value criteria."""
        matched = []
        for row in self.rows:
            if all(row.get(column) == value for column, value in criteria.items()):
                matched.append(row)
        return matched

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (the suite store's payload)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "parameters": jsonable(self.parameters),
            "rows": [jsonable(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (store records)."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            parameters=dict(payload.get("parameters", {})),
            rows=[dict(row) for row in payload.get("rows", [])],
            notes=list(payload.get("notes", [])),
        )


def jsonable(value: Any) -> Any:
    """Best-effort conversion of a value into JSON-serialisable objects.

    Dicts and sequences recurse; scalars pass through; anything else (numpy
    integers, dataclasses, Paths ...) falls back to ``str``.  Used by the
    exporters and by the suite store when fingerprinting configurations.
    """
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        # numpy floats subclass float and serialise fine; numpy ints do not
        # subclass int and fall through to the str branch below.
        return value
    return str(value)


def execution_mode_of(config: Any) -> ExecutionMode:
    """The :class:`ExecutionMode` an experiment config asks for.

    The single place where experiment configs map onto the execution API:
    the config's ``mode`` field (spec string or instance, excluded from
    suite-store fingerprints), or the shared default when it is unset.
    """
    return ExecutionMode.coerce(getattr(config, "mode", None))


def route_stream(
    partitioner: Partitioner,
    keys: Iterable[Key],
    mode: ModeLike | None = None,
) -> list[WorkerId]:
    """Route an entire stream through one partitioner.

    The simulation engine's run for a sender group of one: drivers,
    benchmarks and ad-hoc studies that only need the worker sequence of one
    source should use this instead of a per-message ``route`` loop.
    ``mode`` selects the backend (:class:`~repro.execution.ExecutionMode`,
    default ``columnar(1024)``); results are identical for every mode.
    Columnar mode consumes :func:`~repro.execution.spans` of interned key
    ids (natively when the workload provides them, so array-backed streams
    never materialise per-key) — string keys are hashed once, at interning.
    """
    resolved = ExecutionMode.coerce(mode)
    if resolved.is_scalar:
        return [partitioner.route(key) for key in keys]
    group = SenderGroup([partitioner])
    out: list[WorkerId] = []
    for span, index in spans(keys, group, resolved):
        out.extend(group.route_span(span, index)[0].tolist())
    return out


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value != 0.0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render rows as a fixed-width text table (what the drivers print)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    rendered = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(value.ljust(width) for value, width in zip(line, widths))
        for line in rendered
    )
    return "\n".join([header, separator, body])


def print_result(result: ExperimentResult) -> None:
    """Pretty-print an experiment result to stdout."""
    print(f"== {result.experiment_id}: {result.title} ==")
    if result.parameters:
        rendered = ", ".join(
            f"{name}={value}" for name, value in result.parameters.items()
        )
        print(f"parameters: {rendered}")
    print(format_table(result.rows))
    for note in result.notes:
        print(f"note: {note}")
