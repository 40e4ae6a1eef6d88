"""Stream partitioning (grouping) schemes.

This subpackage contains the paper's contribution — :class:`DChoices` and
:class:`WChoices` — plus every scheme they are compared against:

* :class:`KeyGrouping` — hash each key to exactly one worker (Storm's fields
  grouping);
* :class:`ShuffleGrouping` — round-robin, ignoring keys (ideal balance,
  maximal state replication);
* :class:`PartialKeyGrouping` — the power of both choices (ICDE 2015
  baseline);
* :class:`GreedyD` — the Greedy-d process with a fixed ``d`` for every key
  (building block and ablation target);
* :class:`RoundRobinHead` — head keys round-robin over all workers, tail via
  PKG (the load-oblivious baseline of Section III-B);
* :class:`DChoices` / :class:`WChoices` — head/tail split with heavy-hitter
  detection, the paper's algorithms.

All schemes implement :class:`~repro.partitioning.base.Partitioner`; a new
instance must be created per *source* (they keep per-source local state, as
in the paper's setting).  :func:`create_partitioner` builds instances by
name, which is how the simulators and experiments select schemes.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".base": ("Partitioner", "PartitionerState"),
        ".consistent_grouping": ("ConsistentGrouping",),
        ".d_choices": ("DChoices",),
        ".fixed_d": ("FixedDHead",),
        ".greedy_d": ("GreedyD",),
        ".key_grouping": ("KeyGrouping",),
        ".partial_key_grouping": ("PartialKeyGrouping",),
        ".registry": ("available_schemes", "create_partitioner"),
        ".round_robin_head": ("RoundRobinHead",),
        ".shuffle_grouping": ("ShuffleGrouping",),
        ".w_choices": ("WChoices",),
    },
)

__all__ = [
    "ConsistentGrouping",
    "DChoices",
    "FixedDHead",
    "GreedyD",
    "KeyGrouping",
    "PartialKeyGrouping",
    "Partitioner",
    "PartitionerState",
    "RoundRobinHead",
    "ShuffleGrouping",
    "WChoices",
    "available_schemes",
    "create_partitioner",
]
