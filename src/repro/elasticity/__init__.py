"""Elastic rescaling: worker join/leave/fail mid-stream.

The package adds the elasticity axis the paper's fixed-worker evaluation
leaves open:

* :mod:`repro.elasticity.events` — :class:`WorkerJoin` /
  :class:`WorkerLeave` / :class:`WorkerFail` events at stream offsets, and
  :class:`RescalePlan` schedules parsed from specs like
  ``"join@5000,leave@12000,fail@15000"``;
* :mod:`repro.elasticity.policies` — how a running system executes an
  event: stop-the-world re-hash, consistent-grouping-style incremental
  migration, or PKG candidate-set remap;
* :mod:`repro.elasticity.accountant` — what the rescale costs: keys moved,
  state entries/bytes migrated or lost, tuples misrouted during the
  transition window.

Plans thread through :class:`~repro.simulation.config.SimulationConfig`
(``rescale_plan=``); every partitioner implements the
:meth:`~repro.partitioning.base.Partitioner.rescale` contract the policies
drive.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".accountant": (
            "DEFAULT_STATE_BYTES_PER_ENTRY",
            "MigrationCostAccountant",
            "MigrationReport",
            "RescaleEventRecord",
        ),
        ".events": (
            "EVENT_KINDS",
            "RescaleEvent",
            "RescalePlan",
            "WorkerFail",
            "WorkerJoin",
            "WorkerLeave",
            "as_plan",
            "parse_event",
        ),
        ".policies": ("POLICY_NAMES", "RescalePolicy", "get_policy"),
    },
)

__all__ = [
    "DEFAULT_STATE_BYTES_PER_ENTRY",
    "EVENT_KINDS",
    "MigrationCostAccountant",
    "MigrationReport",
    "POLICY_NAMES",
    "RescaleEvent",
    "RescaleEventRecord",
    "RescalePlan",
    "RescalePolicy",
    "WorkerFail",
    "WorkerJoin",
    "WorkerLeave",
    "as_plan",
    "get_policy",
    "parse_event",
]
