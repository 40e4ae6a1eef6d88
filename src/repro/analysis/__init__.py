"""Analytical machinery from Section IV of the paper.

* :mod:`repro.analysis.zipf` — finite-support Zipf distributions (the ZF
  workloads) and helpers to reason about their head/tail mass.
* :mod:`repro.analysis.head` — the head threshold ``theta`` and the head set
  ``H = {k : p_k >= theta}`` (Section III-A, Figure 3).
* :mod:`repro.analysis.choices` — the expected worker-set size ``b_h``
  (Appendix A), the prefix constraints of Proposition 4.1 and the
  ``find_optimal_choices`` solver used by D-Choices (Figure 4, Figure 9).
* :mod:`repro.analysis.memory` — memory-overhead models for PKG, SG,
  D-Choices and W-Choices (Section IV-B, Figures 5 and 6).
* :mod:`repro.analysis.bounds` — the PKG imbalance bounds that motivate the
  threshold range ``1/(5n) <= theta <= 2/n``.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".bounds": (
            "pkg_breaks_down",
            "pkg_imbalance_lower_bound",
            "pkg_safe_threshold",
            "theta_range",
        ),
        ".choices": (
            "ChoicesSolution",
            "expected_worker_set_size",
            "find_optimal_choices",
            "prefix_constraint_satisfied",
        ),
        ".head": ("head_cardinality", "head_keys", "head_mass", "select_threshold"),
        ".memory": (
            "MemoryModel",
            "memory_dchoices",
            "memory_pkg",
            "memory_shuffle",
            "memory_wchoices",
            "relative_overhead",
        ),
        ".queueing": (
            "ClusterModel",
            "bottleneck_queue_latency_ms",
            "max_load_share",
            "sustainable_throughput",
        ),
        ".zipf": ("ZipfDistribution",),
    },
)

__all__ = [
    "ChoicesSolution",
    "ClusterModel",
    "MemoryModel",
    "ZipfDistribution",
    "bottleneck_queue_latency_ms",
    "max_load_share",
    "sustainable_throughput",
    "expected_worker_set_size",
    "find_optimal_choices",
    "head_cardinality",
    "head_keys",
    "head_mass",
    "memory_dchoices",
    "memory_pkg",
    "memory_shuffle",
    "memory_wchoices",
    "pkg_breaks_down",
    "pkg_imbalance_lower_bound",
    "pkg_safe_threshold",
    "prefix_constraint_satisfied",
    "relative_overhead",
    "select_threshold",
    "theta_range",
]
