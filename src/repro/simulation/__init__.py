"""Stream-partitioning simulator (the counterpart of the authors' SLBSimulator).

The simulator reproduces the setting of Section V-A: the simplest possible
DAG with a set of sources, a set of workers and one partitioned stream in
between.  The input stream is shuffle-grouped over the sources; each source
runs its own instance of the grouping scheme (with local-only load
information, exactly as in the paper) and forwards messages to workers.  The
engine tracks the global load of each worker and derives the imbalance
metric ``I(t)``.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".config": ("SimulationConfig",),
        ".engine": ("SimulationEngine",),
        ".metrics": ("ImbalanceTimeSeries", "LoadTracker"),
        ".results": ("SimulationResult",),
        ".runner": ("run_simulation", "sweep"),
    },
)

__all__ = [
    "ImbalanceTimeSeries",
    "LoadTracker",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "run_simulation",
    "sweep",
]
