"""Ablation: local (per-source) vs. global load estimation.

The paper's schemes route using only the load each *source* has generated
itself (Section IV-B).  This ablation quantifies the price of that
approximation by comparing the usual multi-source run against a
single-source run of the same stream, in which the one source's local view
*is* the global view.
"""

from __future__ import annotations

from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

NUM_WORKERS = 50
NUM_MESSAGES = 150_000
SKEW = 1.6


def _imbalances() -> dict[str, dict[str, float]]:
    results: dict[str, dict[str, float]] = {}
    for scheme in ("PKG", "D-C", "W-C"):
        local = run_simulation(
            ZipfWorkload(SKEW, 10_000, NUM_MESSAGES, seed=3),
            scheme=scheme,
            num_workers=NUM_WORKERS,
            num_sources=5,
            seed=1,
        )
        globl = run_simulation(
            ZipfWorkload(SKEW, 10_000, NUM_MESSAGES, seed=3),
            scheme=scheme,
            num_workers=NUM_WORKERS,
            num_sources=1,
            seed=1,
        )
        results[scheme] = {
            "local_estimation": local.final_imbalance,
            "global_estimation": globl.final_imbalance,
        }
    return results


def test_ablation_local_vs_global_load_estimation(benchmark):
    results = benchmark.pedantic(_imbalances, rounds=1, iterations=1)
    print()
    for scheme, row in results.items():
        print(
            f"{scheme}: local={row['local_estimation']:.3e} "
            f"global={row['global_estimation']:.3e}"
        )
    # The paper's claim: local estimation is a very accurate approximation,
    # so the head-aware schemes stay well balanced even with it.
    for scheme in ("D-C", "W-C"):
        assert results[scheme]["local_estimation"] < 0.02
