#!/usr/bin/env python
"""Measure scalar vs batched execution of the multi-stage dataflow topology.

Runs the Figure 17 word-count topology (split → windowed per-word counts →
window-tagged rekey → reconciliation sink) through the dataflow runtime
twice per scheme — depth-first scalar (``mode="scalar"``) and
stage-by-stage batched (``mode="columnar:1024"``) — and reports end-to-end
throughput in words per second.  Results are byte-identical between the two modes (pinned by
``tests/property/test_dataflow_batch_equivalence.py``); only the wall clock
changes::

    PYTHONPATH=src python benchmarks/bench_dataflow.py

``run_routing_bench.py`` embeds these numbers into ``BENCH_routing.json``
(entries named ``DATAFLOW-<scheme>``) so the nightly bench guard tracks
dataflow throughput alongside raw routing throughput.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.fig17_topology_throughput import (
    Fig17Config,
    make_posts,
    run_scheme,
)

NUM_POSTS = 40_000
BATCH_SIZE = 1_024
ROUNDS = 3
SCHEMES = ("PKG", "D-C", "W-C", "SG")


def run_bench(
    num_posts: int = NUM_POSTS,
    rounds: int = ROUNDS,
    batch_size: int = BATCH_SIZE,
    schemes: tuple[str, ...] = SCHEMES,
) -> dict[str, object]:
    """Measure every scheme; returns ``{scheme: rates}`` (words/second)."""
    config = Fig17Config(num_posts=num_posts)
    configs = {
        "scalar": replace(config, mode="scalar"),
        "batched": replace(config, mode=f"columnar:{batch_size}"),
    }
    posts = make_posts(config)
    words = config.num_messages
    results: dict[str, object] = {}
    print(f"{'scheme':8s} {'scalar w/s':>14s} {'batched w/s':>14s} {'speedup':>8s}")
    for scheme in schemes:
        best = dict.fromkeys(configs, float("inf"))
        for _ in range(rounds):
            for name, run_config in configs.items():
                _, elapsed = run_scheme(run_config, scheme, posts=posts)
                best[name] = min(best[name], elapsed)
        scalar_rate = words / best["scalar"]
        batch_rate = words / best["batched"]
        results[scheme] = {
            "scalar_msgs_per_sec": round(scalar_rate),
            "batch_msgs_per_sec": round(batch_rate),
            "batch_speedup": round(batch_rate / scalar_rate, 2),
        }
        print(
            f"{scheme:8s} {scalar_rate:>14,.0f} {batch_rate:>14,.0f} "
            f"{batch_rate / scalar_rate:>7.1f}x"
        )
    results["_meta"] = {
        "topology": "wordcount-two-level (fig17)",
        "num_posts": num_posts,
        "words_per_post": config.words_per_post,
        "batch_size": batch_size,
        "rounds": rounds,
    }
    return results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Measure scalar vs batched dataflow-topology throughput."
    )
    parser.add_argument(
        "--posts", type=int, default=NUM_POSTS,
        help=f"posts per measurement, 3 words each (default: {NUM_POSTS})",
    )
    parser.add_argument(
        "--rounds", type=int, default=ROUNDS,
        help=f"measurement repetitions, best-of (default: {ROUNDS})",
    )
    parser.add_argument(
        "--batch-size", type=int, default=BATCH_SIZE,
        help=f"micro-batch size of the batched runs (default: {BATCH_SIZE})",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the JSON payload to PATH",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()
    results = run_bench(
        num_posts=args.posts, rounds=args.rounds, batch_size=args.batch_size
    )
    print(f"\ntotal bench time: {time.perf_counter() - started:.1f}s")
    if args.output:
        output = Path(args.output)
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"written to {output}")


if __name__ == "__main__":
    main()
