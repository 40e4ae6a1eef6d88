#!/usr/bin/env python
"""Measure the scalar oracle against the id kernel, entered two ways.

Runs the ``bench_micro_routing`` workload (Zipf 1.4, 50 workers, 20k
messages) through every scheme three times — per-message ``route()``
(the scalar oracle), ``route_batch_columnar()`` over pre-interned key-id
batches (the id kernel) and chunked ``route_batch()`` over key lists (the
same kernel behind ``KeyDictionary.intern_keys``, so the "batch" column is
the "columnar" column plus interning) — and writes the numbers to
``BENCH_routing.json`` at the repository root so future PRs have a perf
baseline to regress against::

    PYTHONPATH=src python benchmarks/run_routing_bench.py

The JSON schema is one entry per scheme::

    {"PKG": {"scalar_msgs_per_sec": ..., "batch_msgs_per_sec": ...,
             "batch_speedup": ..., "columnar_msgs_per_sec": ...,
             "columnar_speedup": ...}, ..., "_meta": {...}}

End-to-end dataflow throughput (``benchmarks/bench_dataflow.py``, the
Figure 17 multi-stage topology) is appended under ``DATAFLOW-<scheme>``
entries with the same shape, and its parameters nest under
``_meta["dataflow"]`` — one unified ``_meta`` (git commit, date, python,
numpy) covers everything in the file.  Pass ``--no-dataflow`` to skip it.

The CI bench guard runs this at reduced scale
(``--messages 10000 --rounds 3 --output bench-current.json``) and compares
the result against the committed baseline with
``benchmarks/check_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy

from repro.partitioning.registry import create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

NUM_WORKERS = 50
NUM_MESSAGES = 20_000
BATCH_SIZE = 2_048
ROUNDS = 5
SCHEMES = ("KG", "SG", "PKG", "D-C", "W-C", "RR")


def _best_time(function, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(num_messages: int = NUM_MESSAGES, rounds: int = ROUNDS) -> dict[str, object]:
    """Measure every scheme and return the BENCH_routing.json payload."""
    keys = list(ZipfWorkload(1.4, 10_000, num_messages, seed=9))
    # The columnar path's input: the same stream, interned once.  Built
    # outside the timers like the key list — the source emits id batches
    # natively in columnar runs, so interning is not a per-route cost.
    dictionary = KeyDictionary()
    batches = [
        ColumnarBatch(
            dictionary.intern_keys(keys[start : start + BATCH_SIZE]),
            dictionary,
            start,
        )
        for start in range(0, len(keys), BATCH_SIZE)
    ]
    results: dict[str, object] = {}
    print(
        f"{'scheme':8s} {'scalar msg/s':>14s} {'batch msg/s':>14s} {'speedup':>8s}"
        f" {'columnar msg/s':>15s} {'speedup':>8s}"
    )
    for scheme in SCHEMES:

        def scalar() -> None:
            partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1)
            route = partitioner.route
            for key in keys:
                route(key)

        def batched() -> None:
            partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1)
            for start in range(0, len(keys), BATCH_SIZE):
                partitioner.route_batch(keys[start : start + BATCH_SIZE])

        def columnar() -> None:
            partitioner = create_partitioner(scheme, num_workers=NUM_WORKERS, seed=1)
            for batch in batches:
                partitioner.route_batch_columnar(batch)

        scalar_rate = num_messages / _best_time(scalar, rounds)
        batch_rate = num_messages / _best_time(batched, rounds)
        columnar_rate = num_messages / _best_time(columnar, rounds)
        results[scheme] = {
            "scalar_msgs_per_sec": round(scalar_rate),
            "batch_msgs_per_sec": round(batch_rate),
            "batch_speedup": round(batch_rate / scalar_rate, 2),
            "columnar_msgs_per_sec": round(columnar_rate),
            "columnar_speedup": round(columnar_rate / scalar_rate, 2),
        }
        print(
            f"{scheme:8s} {scalar_rate:>14,.0f} {batch_rate:>14,.0f} "
            f"{batch_rate / scalar_rate:>7.1f}x {columnar_rate:>15,.0f} "
            f"{columnar_rate / scalar_rate:>7.1f}x"
        )

    results["_meta"] = {
        "workload": f"Zipf(1.4), |K|=10k, m={num_messages}",
        "num_workers": NUM_WORKERS,
        "batch_size": BATCH_SIZE,
        "rounds": rounds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # Provenance: which tree produced these numbers and when, so the
        # bench trajectory across PRs stays reconstructible from the JSON
        # alone (see docs/performance.md).
        "git_commit": _git_commit(),
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return results


def _git_commit() -> str:
    """The current commit hash, or "unknown" outside a git checkout.

    A ``-dirty`` suffix marks a working tree with uncommitted changes —
    the normal case for the run that refreshes the committed baseline,
    whose numbers describe the *next* commit rather than HEAD.
    """
    cwd = Path(__file__).resolve().parent
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if probe.returncode != 0 or not probe.stdout.strip():
            return "unknown"
        commit = probe.stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if dirty.returncode == 0 and dirty.stdout.strip():
            commit += "-dirty"
        return commit
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Measure scalar-oracle vs id-kernel routing throughput."
    )
    parser.add_argument(
        "--messages", type=int, default=NUM_MESSAGES,
        help=f"stream length per measurement (default: {NUM_MESSAGES})",
    )
    parser.add_argument(
        "--rounds", type=int, default=ROUNDS,
        help=f"measurement repetitions, best-of (default: {ROUNDS})",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="where to write the JSON (default: BENCH_routing.json at the repo root)",
    )
    parser.add_argument(
        "--no-dataflow", action="store_true",
        help="skip the multi-stage dataflow topology measurement",
    )
    args = parser.parse_args(argv)
    results = run_bench(num_messages=args.messages, rounds=args.rounds)
    if not args.no_dataflow:
        from bench_dataflow import run_bench as run_dataflow_bench

        # Scale the topology stream with the routing stream so the reduced
        # CI invocation stays fast: one post carries three words.
        print("\ndataflow topology (fig17), scalar vs batched:")
        dataflow = run_dataflow_bench(num_posts=max(args.messages // 2, 2_000))
        for name, entry in dataflow.items():
            if name.startswith("_"):
                # One unified _meta: the dataflow parameters nest under the
                # provenance-stamped top-level block instead of a second,
                # stampless _meta_dataflow entry.
                results["_meta"]["dataflow"] = entry
            else:
                results[f"DATAFLOW-{name}"] = entry
    if args.output is not None:
        output = Path(args.output)
    else:
        output = Path(__file__).resolve().parent.parent / "BENCH_routing.json"
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwritten to {output}")


if __name__ == "__main__":
    main()
