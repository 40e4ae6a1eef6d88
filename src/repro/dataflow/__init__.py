"""A minimal dataflow (DSPE) runtime.

The paper evaluates its groupings inside Apache Storm: a directed acyclic
graph of operators, each replicated into several parallel instances, with a
grouping scheme on every edge.  This subpackage provides the same substrate
in-process:

* :mod:`repro.dataflow.graph` — declare a topology: named vertices (operator
  factories + parallelism) connected by edges carrying a grouping scheme;
* :mod:`repro.dataflow.runtime` — run a topology over a workload, routing
  every message edge by edge with per-upstream-instance partitioners (so
  load estimation stays local to the sender, as in the paper), and collect
  per-vertex load, imbalance and state-size metrics.

The runtime is logical (no threads, no network): it exists so that end-to-end
applications — word count, trending topics — can be expressed exactly as they
would be on a real DSPE and still measure the balance effects the paper is
about.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".graph": ("Edge", "Topology", "Vertex"),
        ".runtime": ("TopologyResult", "VertexMetrics", "run_topology"),
    },
)

__all__ = [
    "Edge",
    "Topology",
    "TopologyResult",
    "Vertex",
    "VertexMetrics",
    "run_topology",
]
