"""Ablation: sensitivity of D-Choices to the heavy-hitter sketch.

The paper uses SpaceSaving; MisraGries and LossyCounting are drop-in
replacements with the opposite error direction.  The ablation runs the same
skewed stream through D-Choices with each sketch and compares the resulting
imbalance.
"""

from __future__ import annotations

from repro.analysis.bounds import theta_range
from repro.simulation.runner import run_simulation
from repro.sketches.lossy_counting import LossyCounting
from repro.sketches.misra_gries import MisraGries
from repro.sketches.space_saving import SpaceSaving
from repro.workloads.zipf_stream import ZipfWorkload

NUM_WORKERS = 50
NUM_MESSAGES = 120_000
SKEW = 1.8


def _sketch_factories():
    theta = theta_range(NUM_WORKERS).default
    return {
        "SpaceSaving": lambda: SpaceSaving.for_threshold(theta, slack=2.0),
        "MisraGries": lambda: MisraGries(capacity=int(2.0 / theta)),
        "LossyCounting": lambda: LossyCounting(epsilon=theta / 2.0),
    }


def _imbalances() -> dict[str, float]:
    results = {}
    for name, factory in _sketch_factories().items():
        result = run_simulation(
            ZipfWorkload(SKEW, 10_000, NUM_MESSAGES, seed=5),
            scheme="D-C",
            num_workers=NUM_WORKERS,
            num_sources=5,
            seed=1,
            scheme_options={"sketch": factory()},
        )
        results[name] = result.final_imbalance
    return results


def test_ablation_sketch_choice(benchmark):
    results = benchmark.pedantic(_imbalances, rounds=1, iterations=1)
    print()
    for name, imbalance in results.items():
        print(f"D-C with {name}: imbalance={imbalance:.3e}")
    # All three sketches identify the same small head, so D-C should balance
    # the stream with any of them.
    for name, imbalance in results.items():
        assert imbalance < 0.05, name
