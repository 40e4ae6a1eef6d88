"""Discrete-event simulation of a Storm-like cluster deployment.

The paper's Q4 experiments (Figures 13 and 14) run a two-operator topology on
a real Apache Storm cluster: 48 sources generate a Zipf stream and 80 workers
aggregate it, with an artificial 1 ms processing delay per message.  Since a
physical cluster is not available here, this subpackage models that setup as
a discrete-event queueing simulation:

* every worker is a FIFO queue with a deterministic service time (1 ms);
* every source emits a new message as soon as it has spare *in-flight window*
  (the analogue of Storm's ``max.spout.pending`` flow control), routes it
  with its grouping scheme, and the message queues at the chosen worker;
* throughput is the number of completed messages per simulated second;
* latency is the time from emission to service completion, dominated by the
  queueing delay at the chosen worker — exactly the mechanism the paper
  credits for the KG < PKG < D-C ≈ W-C ≈ SG ordering.

Absolute numbers depend on the service time and window size rather than on
real hardware, but the *relative* performance of the grouping schemes — who
saturates first and by how much — is reproduced.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".engine": ("ClusterEngine",),
        ".latency": ("LatencyStats",),
        ".results": ("ClusterResult",),
        ".runner": ("run_cluster_experiment",),
        ".topology": ("ClusterTopology",),
    },
)

__all__ = [
    "ClusterEngine",
    "ClusterResult",
    "ClusterTopology",
    "LatencyStats",
    "run_cluster_experiment",
]
