"""Experiment drivers: one module per table/figure of the paper.

Every module exposes

* a ``*Config`` dataclass with three preset factories: ``paper()`` (the
  exact parameters used in the paper), ``quick()`` (a scaled-down variant
  that runs in seconds on a laptop) and ``tiny()`` (the smoke-test scale
  used by the suite orchestrator and CI);
* a ``run(config)`` function returning an
  :class:`~repro.experiments.common.ExperimentResult` whose rows mirror the
  series plotted in the figure (or the rows of the table);
* a ``DESCRIPTOR`` (:class:`~repro.experiments.descriptor.ExperimentDescriptor`)
  declaring the paper artifact, the validated claim, the schemes involved
  and the output spec — it also provides the module's ``main()`` entry
  point (``python -m repro.experiments.fig01_scale_imbalance --scale tiny``).

:mod:`repro.experiments.registry` collects the descriptors into one lookup
table for the CLI, the suite orchestrator (:mod:`repro.suite`) and the docs
guard test.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".common": ("ExperimentResult", "format_table"),
        ".descriptor": ("ExperimentDescriptor", "OutputSpec", "SCALES"),
        ".registry": ("get_experiment", "list_experiments", "run_experiment"),
    },
)

__all__ = [
    "ExperimentDescriptor",
    "ExperimentResult",
    "OutputSpec",
    "SCALES",
    "format_table",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
