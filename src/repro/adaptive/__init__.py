"""Adaptive partitioning: online scheme/parameter switching under drift.

The package threads three pieces together:

* :class:`~repro.adaptive.policy.SwitchPolicy` — hysteresis thresholds (from
  the paper's PKG bounds) deciding which rung of a scheme ladder the
  observed skew needs;
* :class:`~repro.adaptive.tuner.ParameterTuner` — online theta/d retuning
  from the live SpaceSaving summary via the existing solver accessors;
* :class:`~repro.adaptive.partitioner.AdaptivePartitioner` — the registered
  ``AD`` scheme wrapping a delegate partitioner and hot-swapping it at
  deterministic batch boundaries through the ``export_state`` /
  ``adopt_state`` contract.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".partitioner": ("AdaptivePartitioner", "SwitchRecord"),
        ".policy": ("DEFAULT_LADDER", "DriftMetrics", "SwitchPolicy"),
        ".tuner": ("ParameterTuner",),
    },
)

__all__ = [
    "DEFAULT_LADDER",
    "AdaptivePartitioner",
    "DriftMetrics",
    "ParameterTuner",
    "SwitchPolicy",
    "SwitchRecord",
]
