"""Reporting utilities: export experiment rows and render quick ASCII charts.

The experiment drivers return plain rows; this subpackage turns them into
artifacts a user can keep or eyeball without a plotting stack:

* :mod:`repro.reporting.export` — CSV / JSON export of experiment results;
* :mod:`repro.reporting.ascii_chart` — logarithmic or linear ASCII charts of
  one or more series, handy for comparing schemes in a terminal (the
  figures of the paper are log-scale imbalance plots, which render well as
  text).
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".ascii_chart": ("ascii_bar_chart", "ascii_series_chart"),
        ".export": ("result_to_csv", "result_to_json", "write_result"),
    },
)

__all__ = [
    "ascii_bar_chart",
    "ascii_series_chart",
    "result_to_csv",
    "result_to_json",
    "write_result",
]
