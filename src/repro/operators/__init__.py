"""Stateful streaming operators and partial-state aggregation.

The paper's schemes split a key's state across up to ``d`` workers, so a
stateful operator must be able to (a) keep per-key partial state on each
worker and (b) reconcile those partials when the result is needed — the
"aggregation cost proportional to d" discussed in Section IV-B.  This
subpackage provides the operator substrate used by the dataflow runtime and
the examples:

* :mod:`repro.operators.base` — the operator interface and keyed state;
* :mod:`repro.operators.aggregations` — the count aggregator, a
  *commutative monoid* so partial counts merge exactly (the one fold every
  figure, example and benchmark runs);
* :mod:`repro.operators.windows` — the tumbling window assigner and a
  windowed aggregation operator;
* :mod:`repro.operators.reconciliation` — merging partial states collected
  from the replicas of a key, plus an accounting of the aggregation cost.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".aggregations": ("CountAggregator",),
        ".base": ("KeyedState", "Operator", "StatefulOperator", "StatelessOperator"),
        ".reconciliation": (
            "AggregationCost",
            "ReconciliationSink",
            "merge_partial_states",
            "reconcile",
        ),
        ".windows": ("TumblingWindowAssigner", "WindowedAggregator"),
    },
)

__all__ = [
    "AggregationCost",
    "CountAggregator",
    "KeyedState",
    "Operator",
    "ReconciliationSink",
    "StatefulOperator",
    "StatelessOperator",
    "TumblingWindowAssigner",
    "WindowedAggregator",
    "merge_partial_states",
    "reconcile",
]
