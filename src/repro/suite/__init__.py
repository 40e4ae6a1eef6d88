"""Parallel experiment-suite orchestrator with a content-addressed store.

The subsystem that turns "reproduce the paper" into one resumable command:

* :mod:`repro.suite.store` — content-addressed results store: each
  (experiment, scale, config) cell is fingerprinted (SHA-256 over the
  canonical config JSON) and its :class:`~repro.experiments.common.ExperimentResult`
  persisted as a JSON record under ``results/``.  Re-running a cell whose
  fingerprint is already stored is a cache hit, so interrupted suites
  resume where they stopped.
* :mod:`repro.suite.orchestrator` — shards the independent cells across a
  ``multiprocessing`` pool; every cell routes its streams through the
  simulation engine's columnar id path (``SimulationConfig.mode``).
* :mod:`repro.suite.report` — summary tables and ASCII charts over the
  store, plus CSV/JSON export via :mod:`repro.reporting`.

CLI: ``python -m repro.cli suite run|report|clean``.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".orchestrator": ("CellOutcome", "SuiteSummary", "run_suite"),
        ".report": ("render_report", "report_rows"),
        ".store": ("ResultRecord", "ResultsStore", "config_fingerprint"),
    },
)

__all__ = [
    "CellOutcome",
    "ResultRecord",
    "ResultsStore",
    "SuiteSummary",
    "config_fingerprint",
    "render_report",
    "report_rows",
    "run_suite",
]
