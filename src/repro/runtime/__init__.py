"""Multi-process cluster runtime over shared-memory ring buffers.

The simulators measure *where* messages go; this package actually moves
them.  One source process interns the workload into columnar key-id
batches, routes them with the exact same :class:`~repro.partitioning.base.
Partitioner` fast path the simulator uses, and pushes per-worker id arrays
into fixed-size single-producer/single-consumer ring buffers — slices of
one anonymous shared mapping made before the fork, so no pickling on the
hot path and nothing named that could outlive a run.  N worker processes
pop frames, decode ids through a delta-synced
:class:`~repro.workloads.columnar.KeyDictionary` replica and apply a
configurable per-message service time.  The coordinating process waits on
descriptors only: result pipes, process sentinels (crash detection) and a
snapshot tick that records the shared load vector / SpaceSaving head
summary and checks heartbeats (hang detection).

See ``docs/runtime.md`` for the architecture and the shared-memory layout.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".faults": (
            "CRASH_EXIT_CODE",
            "FAULT_KINDS",
            "FaultPlan",
            "FaultSpec",
            "WorkerFaults",
        ),
        ".ring": (
            "EOF",
            "FRAME_HEADER_WORDS",
            "Frame",
            "InflightDrain",
            "RingClosed",
            "SpscRing",
        ),
        ".runtime": (
            "ClusterConfig",
            "ClusterResult",
            "WorkerResult",
            "run_cluster",
            "validate_against_simulation",
        ),
        ".state": ("ClusterSnapshot", "SharedClusterState"),
    },
)

__all__ = [
    "CRASH_EXIT_CODE",
    "EOF",
    "FAULT_KINDS",
    "FRAME_HEADER_WORDS",
    "FaultPlan",
    "FaultSpec",
    "Frame",
    "InflightDrain",
    "RingClosed",
    "SpscRing",
    "ClusterConfig",
    "ClusterResult",
    "ClusterSnapshot",
    "SharedClusterState",
    "WorkerFaults",
    "WorkerResult",
    "run_cluster",
    "validate_against_simulation",
]
