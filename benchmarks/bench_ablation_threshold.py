"""Ablation: sensitivity of D-Choices to the head threshold theta.

Figure 7 sweeps theta for W-C and RR; this ablation does the same for
D-Choices itself, confirming the paper's conclusion that any value in the
admissible range ``[1/(5n), 2/n]`` yields a satisfactory imbalance, so the
conservative default ``1/(5n)`` is a safe choice.
"""

from __future__ import annotations

from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

NUM_WORKERS = 50
NUM_MESSAGES = 120_000
SKEW = 2.0

THETAS = {
    "2/n": 2.0 / NUM_WORKERS,
    "1/n": 1.0 / NUM_WORKERS,
    "1/(2n)": 0.5 / NUM_WORKERS,
    "1/(5n)": 0.2 / NUM_WORKERS,
    "1/(8n)": 0.125 / NUM_WORKERS,
}


def _imbalances() -> dict[str, float]:
    results = {}
    for label, theta in THETAS.items():
        result = run_simulation(
            ZipfWorkload(SKEW, 10_000, NUM_MESSAGES, seed=7),
            scheme="D-C",
            num_workers=NUM_WORKERS,
            num_sources=5,
            seed=1,
            scheme_options={"theta": theta},
        )
        results[label] = result.final_imbalance
    return results


def test_ablation_threshold_for_dchoices(benchmark):
    results = benchmark.pedantic(_imbalances, rounds=1, iterations=1)
    print()
    for label, imbalance in results.items():
        print(f"D-C with theta={label}: imbalance={imbalance:.3e}")
    # every threshold in the admissible range keeps D-C far below PKG's
    # imbalance at this scale/skew (which is on the order of 0.2+)
    for label, imbalance in results.items():
        assert imbalance < 0.05, label
