"""Declarative experiment descriptors.

Every driver module declares a single :data:`DESCRIPTOR` — a frozen
:class:`ExperimentDescriptor` naming the paper artifact it reproduces, the
claim being validated, the config class, its ``scales`` table (one row of
field overrides per scale), the schemes involved and an :class:`OutputSpec`
describing how the rows are plotted.

The table is checked when the descriptor is built, i.e. when the driver
module is imported: a missing or extra scale, or an override naming no
field of the config class, raises there rather than on first use.  The
registry, ``repro-slb run``, the suite orchestrator and the docs guard all
consume the same declaration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentResult, jsonable

#: The parameter scales every descriptor's table holds, smallest first.
#: ``tiny`` is the smoke-test scale used by the suite orchestrator and CI,
#: ``quick`` runs in seconds on a laptop, ``paper`` uses the paper's numbers.
SCALES = ("tiny", "quick", "paper")

#: Config fields that do not affect experiment *results* (every execution
#: mode — scalar or columnar at any chunk length — is bit-identical), so
#: the suite's content-addressed store excludes them from cache keys:
#: cached records never invalidate over a pure performance knob.
NON_SEMANTIC_FIELDS = frozenset({"mode"})


@dataclass(frozen=True, slots=True)
class OutputSpec:
    """How an experiment's rows map onto a figure/table.

    Attributes
    ----------
    kind:
        "series" (x/y lines, one per ``series_by`` combination), "bars"
        (one labelled bar per row) or "table" (no chart; the row table is
        the artifact, as for Table I).
    x, y:
        Column names of the plotted axes (``None`` for tables).
    series_by:
        Columns whose value combinations identify one plotted line/bar.
    log_y:
        Whether the paper plots the y axis on a log scale.
    """

    kind: str = "table"
    x: str | None = None
    y: str | None = None
    series_by: tuple[str, ...] = ()
    log_y: bool = False

    def _label(self, row: Mapping[str, Any]) -> str:
        return "/".join(f"{row[column]}" for column in self.series_by) or "all"

    def render(self, result: ExperimentResult, width: int = 60) -> str | None:
        """Render the rows as an ASCII chart (``None`` for table outputs)."""
        if self.kind == "table" or self.y is None or not result.rows:
            return None
        from repro.reporting.ascii_chart import ascii_bar_chart, ascii_series_chart

        if self.kind == "bars":
            values: dict[str, float] = {}
            for row in result.rows:
                label = self._label(row)
                if self.x is not None:
                    label = f"{label}/{row[self.x]}"
                values[label] = float(row[self.y])
            return ascii_bar_chart(values, width=width)
        if self.kind == "series":
            series: dict[str, dict[float, float]] = {}
            for row in result.rows:
                if self.x is None or row.get(self.y) is None:
                    continue
                points = series.setdefault(self._label(row), {})
                points[float(row[self.x])] = float(row[self.y])
            if not series:
                return None
            return ascii_series_chart(series, width=width, log_y=self.log_y)
        raise ConfigurationError(f"unknown output kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class ExperimentDescriptor:
    """Declarative description of one paper-figure/table reproduction.

    Attributes
    ----------
    experiment_id:
        Registry identifier ("fig1" ... "table1").
    title:
        Human-readable description of the reproduced artifact.
    artifact:
        The paper artifact name ("Figure 1", "Table I").
    claim:
        The paper observation the experiment validates (one sentence).
    run:
        The driver's ``run(config)`` callable.
    config_class:
        The driver's config dataclass; its field defaults are the base
        every scale overrides.
    scales:
        ``{scale: {field: value}}`` for exactly the :data:`SCALES`; each
        row overrides ``config_class`` field defaults.
    kind:
        "analytical" (closed-form, no stream), "simulation" (routing
        simulation engine) or "cluster" (discrete-event cluster simulator).
    schemes:
        Grouping schemes exercised by the experiment (empty if none).
    output:
        How the rows map onto the figure (see :class:`OutputSpec`).
    """

    experiment_id: str
    title: str
    artifact: str
    claim: str
    run: Callable[..., ExperimentResult]
    config_class: type
    scales: Mapping[str, Mapping[str, Any]]
    kind: str = "simulation"
    schemes: tuple[str, ...] = ()
    output: OutputSpec = OutputSpec()

    def __post_init__(self) -> None:
        name = f"{self.experiment_id}: scale"
        for scale in SCALES:
            if scale not in self.scales:
                raise ConfigurationError(f"{name} {scale!r} is missing")
        fields = {field.name for field in dataclasses.fields(self.config_class)}
        for scale, overrides in self.scales.items():
            if scale not in SCALES:
                raise ConfigurationError(
                    f"{name} {scale!r} is not one of {SCALES}"
                )
            for field_name in overrides:
                if field_name not in fields:
                    raise ConfigurationError(
                        f"{name} {scale!r} sets {field_name!r}, which is not "
                        f"a field of {self.config_class.__name__}"
                    )

    def config(self, scale: str = "quick") -> Any:
        """A fresh configuration for ``scale`` (tiny, quick or paper)."""
        if scale not in SCALES:
            raise ConfigurationError(
                f"scale must be one of {SCALES}, got {scale!r}"
            )
        return self.config_class(**self.scales[scale])

    def config_dict(self, config: Any) -> dict[str, Any]:
        """The configuration as a JSON-serialisable dict (for store keys)."""
        return {
            name: jsonable(value)
            for name, value in dataclasses.asdict(config).items()
        }

    def configure(self, scale: str = "quick", mode: Any = None) -> Any:
        """Build the ``scale`` preset, optionally overriding the execution.

        ``mode`` (an :class:`~repro.execution.ExecutionMode` or spec string)
        applies to the experiments whose config has a ``mode`` field (the
        stream-backed ones); results are identical for every value, only
        the throughput changes.  Any other experiment has no execution to
        choose and rejects a ``mode``.
        """
        config = self.config(scale)
        if mode is None:
            return config
        if not hasattr(config, "mode"):
            raise ConfigurationError(
                f"{self.experiment_id} has no execution mode to choose; "
                "run it without a mode"
            )
        from repro.execution import ExecutionMode

        config.mode = ExecutionMode.coerce(mode)
        return config
