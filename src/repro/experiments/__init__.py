"""Experiment drivers: one module per table/figure of the paper.

Every module exposes

* a ``*Config`` dataclass whose field defaults are the base every scale
  starts from;
* a ``run(config)`` function returning an
  :class:`~repro.experiments.common.ExperimentResult` whose rows mirror the
  series plotted in the figure (or the rows of the table);
* a ``DESCRIPTOR`` (:class:`~repro.experiments.descriptor.ExperimentDescriptor`)
  declaring the paper artifact, the validated claim, the schemes involved,
  the output spec and the ``scales`` table: the config field overrides of
  ``paper`` (the paper's parameters), ``quick`` (seconds on a laptop) and
  ``tiny`` (the smoke-test scale of the suite orchestrator and CI).

:mod:`repro.experiments.registry` collects the descriptors into one lookup
table for ``repro-slb run``, the suite orchestrator (:mod:`repro.suite`) and
the docs guard test; :func:`run_experiment` is the library entry point.
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
