"""High-level helpers to run simulations and parameter sweeps."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.execution import ModeLike
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.results import SimulationResult
from repro.types import Key
from repro.workloads.base import Workload


def run_simulation(
    workload: Workload | Iterable[Key],
    scheme: str,
    num_workers: int,
    num_sources: int = 5,
    seed: int = 0,
    scheme_options: dict[str, Any] | None = None,
    track_interval: int = 0,
    track_head_tail: bool = False,
    imbalance_window: int = 0,
    mode: ModeLike | None = None,
    rescale_plan: Any = None,
    rescale_policy: str = "rehash",
    migration_window: int = 1000,
) -> SimulationResult:
    """Run one grouping scheme over one workload and return the result.

    This is the main entry point of the library for simulation studies::

        from repro import ExecutionMode, ZipfWorkload, run_simulation

        workload = ZipfWorkload(exponent=1.5, num_keys=10_000, num_messages=1_000_000)
        result = run_simulation(workload, scheme="D-C", num_workers=50,
                                mode=ExecutionMode.columnar(4096))
        print(result.final_imbalance)

    ``mode`` selects the execution backend — ``ExecutionMode.scalar()`` or
    ``.columnar(n)``, or a spec string like ``"columnar:4096"``; the default
    is ``columnar(1024)``.  Results are byte-identical for every mode, only
    throughput changes.

    ``rescale_plan`` (a :class:`~repro.elasticity.events.RescalePlan` or a
    spec string like ``"join@5000,fail@15000"``) makes workers join, leave
    or fail mid-stream; ``rescale_policy`` and ``migration_window`` choose
    how spec-string plans are executed.  The returned result then carries a
    :class:`~repro.elasticity.accountant.MigrationReport` in ``.migration``.

    ``imbalance_window`` > 0 additionally tracks the per-window imbalance
    (the metric adaptive partitioning is judged on); the worst window lands
    in ``result.worst_window_imbalance``.  For the adaptive scheme (``AD``),
    pass policy knobs via ``scheme_options`` — e.g.
    ``{"policy": "enter_skew=1.5,dwell=8000", "check_interval": 1000}``.
    """
    config = SimulationConfig(
        scheme=scheme,
        num_workers=num_workers,
        num_sources=num_sources,
        seed=seed,
        scheme_options=scheme_options or {},
        track_interval=track_interval,
        track_head_tail=track_head_tail,
        imbalance_window=imbalance_window,
        mode=mode,
        rescale_plan=rescale_plan,
        rescale_policy=rescale_policy,
        migration_window=migration_window,
    )
    engine = SimulationEngine(config)
    # Pass the workload itself (not iter(workload)) so the engine can use a
    # workload's native columnar iterator when it provides one.
    return engine.run(workload)


def sweep(
    workload_factory,
    schemes: Sequence[str],
    worker_counts: Sequence[int],
    num_sources: int = 5,
    seed: int = 0,
    scheme_options: dict[str, Any] | None = None,
    track_interval: int = 0,
) -> list[SimulationResult]:
    """Run every (scheme, num_workers) combination.

    ``workload_factory`` is called with no arguments for each run so every
    run consumes a fresh stream (generators are single-use).  Use a lambda
    closing over the workload parameters::

        results = sweep(
            lambda: ZipfWorkload(1.5, 10_000, 500_000, seed=7),
            schemes=("PKG", "D-C", "W-C"),
            worker_counts=(5, 10, 50),
        )
    """
    results = []
    for scheme in schemes:
        for num_workers in worker_counts:
            results.append(
                run_simulation(
                    workload_factory(),
                    scheme=scheme,
                    num_workers=num_workers,
                    num_sources=num_sources,
                    seed=seed,
                    scheme_options=scheme_options,
                    track_interval=track_interval,
                )
            )
    return results


def results_table(results: Sequence[SimulationResult]) -> list[dict[str, object]]:
    """Flatten results into rows suitable for printing or CSV export."""
    return [result.summary() for result in results]
