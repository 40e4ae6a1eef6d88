"""What recording a routed span's worker-side key state pays for, pinned.

A columnar run keeps the key state that Section IV-B's memory cost counts
as one bit per (key id, worker): ``WorkerKeyBits.record_span`` sets a
span's bits with one ``np.bitwise_or.at``, whatever the worker count.  The
per-worker sets it replaced took one ``set.update`` per worker per segment,
so a run at the paper's 100 workers paid a hundred calls a segment.  That
is easy to lose without any equivalence test noticing — grouping the ids
by worker again leaves every count identical — so this file holds the
cost, in the register of ``tests/workloads/test_interning_costs.py``; the
values are held by ``tests/simulation/test_span_accounting.py``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine

SPAN = 4_096
FEW, MANY = 8, 1_000


def _calls(function) -> int:
    """Calls made while ``function`` runs: Python functions and C functions
    alike (``set.update`` is a C method)."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return count


def _span_calls(num_workers: int) -> int:
    """Calls of ``_account_span`` over one span that reaches every worker."""
    engine = SimulationEngine(
        SimulationConfig(scheme="KG", num_workers=num_workers, mode="columnar:4096")
    )
    rng = np.random.default_rng(num_workers)
    ids = rng.integers(0, 2_000, SPAN)
    workers = np.arange(SPAN) % num_workers
    heads = rng.random(SPAN) < 0.25
    calls = _calls(lambda: engine._account_span(ids, workers, heads))
    assert engine.tracker.messages_seen == SPAN
    return calls


def test_span_accounting_makes_no_call_per_worker():
    """One span costs the same number of calls at 8 and at 1,000 workers
    (the per-worker key sets made one ``set.update`` per worker)."""
    few, many = _span_calls(FEW), _span_calls(MANY)
    assert few == many, (few, many)
    assert many < 100  # ... and that number is a handful of numpy wrappers
