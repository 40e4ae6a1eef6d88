#!/usr/bin/env python
"""Interleaved A/B of the repo benchmark between two checkouts.

    python benchmarks/ab_pairs.py PARENT_DIR CHANGE_DIR --workload sim_hot \
        [--seed 2016] [--pairs 10]

Runs each checkout's own benchmark command (``BENCHMARK.json``'s
``python3 bench/run.py``) with ``--workload W --seed S`` in the two
directories alternately — the parent first in even pairs, the change first
in odd ones, so neither side always inherits the other's warm machine —
and reads the JSON object each run prints last.  Every run is echoed as it
finishes; then, per end-to-end metric of the parent's ``BENCHMARK.json``:
both sides' medians and quartiles, the pairs the change won, the parent's
inter-quartile range, and a verdict by the rule of the ``choosing-metrics``
guide, section 8:

``gain``
    the change read better in at least 9/10 of the pairs (a tie counts for
    neither side) *and* the medians differ by more than the parent's own
    IQR.  Nothing less is a gain, whatever the ratio of medians says.
``regression``
    the change's median is worse than the parent's by more than the bound
    the benchmark fixed for the metric.
``unresolved``
    neither of the above, and the quartile spread of either side, relative
    to its median, exceeds the bound — unless every run of the change read
    better than every run of the parent, the runs cannot tell "no worse"
    from "worse by the bound", and saying *unchanged* would be a guess.
``unchanged``
    no worse than the bound, measured with a spread inside it.
``identical`` / ``CHANGED``
    ``balance.*`` and ``replication.*`` are functions of the routed load
    vectors, which the benchmark holds to the scalar oracle's: counts, not
    timings.  They are compared for equality to the last digit, over every
    run of both sides.

A run that reports a failed trial, ``"correct": false`` or no result at all
fails the comparison; so do ``regression`` and ``CHANGED``.  Exit code 1
then, 0 otherwise.  The tool reads ``bench/`` and edits nothing in either
checkout (the benchmark itself writes only its ignored ``bench/out/``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Share of all pairs the change must win for a gain (ties win for nobody).
PAIRS_TO_WIN = 0.9

#: Metrics that are deterministic given the workload seed (see the docstring).
COUNTS = ("balance.", "replication.")


@dataclass(frozen=True)
class Row:
    """One end-to-end metric, judged over all pairs."""

    name: str
    unit: str
    verdict: str
    parent: tuple[float, float, float]  # median, q1, q3
    change: tuple[float, float, float]
    won: int
    pairs: int

    @property
    def parent_iqr(self) -> float:
        return self.parent[2] - self.parent[1]

    @property
    def ratio(self) -> float:
        """Change median over parent median (base: the parent)."""
        return self.change[0] / self.parent[0] if self.parent[0] else float("nan")

    @property
    def failed(self) -> bool:
        return self.verdict in ("regression", "CHANGED")


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``, as ``bench/harness.py`` takes them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def judge(entry: dict, parent: list[float], change: list[float]) -> Row:
    """The verdict on one metric; ``parent[i]`` and ``change[i]`` are pair ``i``.

    ``entry`` is the metric's ``end_to_end`` entry of ``BENCHMARK.json``:
    ``name``, ``unit``, ``better`` ("higher" / "lower") and the regression
    ``bound`` as a share of the parent's median.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{entry['name']}: need as many parent as change runs, and one at least")
    sign = 1.0 if entry["better"] == "higher" else -1.0
    won = sum(sign * c > sign * p for p, c in zip(parent, change))
    stats_parent, stats_change = summary(parent), summary(change)

    def row(verdict: str) -> Row:
        return Row(
            entry["name"], entry["unit"], verdict, stats_parent, stats_change, won, len(parent)
        )

    if entry["name"].startswith(COUNTS):
        return row("identical" if len({*parent, *change}) == 1 else "CHANGED")
    gap = sign * (stats_change[0] - stats_parent[0])  # > 0: the change is better
    iqr = stats_parent[2] - stats_parent[1]
    if won >= PAIRS_TO_WIN * len(parent) and gap > iqr:
        return row("gain")
    bound = entry["bound"] * abs(stats_parent[0])
    if -gap > bound:
        return row("regression")
    spread = max(
        (q3 - q1) / abs(median) if median else float("inf")
        for median, q1, q3 in (stats_parent, stats_change)
    )
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > entry["bound"] and not every_run_better:
        return row("unresolved")
    return row("unchanged")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result object, or a failed one."""
    command = json.loads((checkout / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode or not isinstance(result, dict) or "metrics" not in result:
        detail = (done.stderr.strip().splitlines() or lines or ["no output"])[-1]
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": detail}
    return result


def run_failure(result: dict) -> str | None:
    """Why a run cannot be counted, or ``None``."""
    if "error" in result:
        return f"no result ({result['error']})"
    if result["failed"] or not result["correct"]:
        return f"{result['failed']} of {result['attempted']} trials failed, correct={result['correct']}"
    return None


def report(rows: list[Row]) -> str:
    lines = [
        f"{'metric':18s} {'parent median [q1, q3]':>38s} {'change median [q1, q3]':>38s} "
        f"{'ratio':>7s} {'won':>6s} {'parent IQR':>11s}  verdict"
    ]
    for row in rows:
        cells = [
            "{:.6g} [{:.6g}, {:.6g}]".format(*side) for side in (row.parent, row.change)
        ]
        lines.append(
            f"{row.name:18s} {cells[0]:>38s} {cells[1]:>38s} {row.ratio:>6.3f}x "
            f"{row.won:>3d}/{row.pairs:<2d} {row.parent_iqr:>11.4g}  {row.verdict}"
            f"  ({row.unit})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Verdicts: gain, regression, unresolved, unchanged, identical, CHANGED "
        "(see the module docstring); exit 1 on a failed run, a regression or a changed count.",
    )
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR", help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one of BENCHMARK.json's workloads")
    parser.add_argument("--seed", type=int, default=2016, help="seed of the streams (default: bench/run.py's)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    failures: list[str] = []
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            result = run_once(sides[side], args.workload, args.seed)
            runs[side].append(result)
            failure = run_failure(result)
            if failure:
                failures.append(f"pair {pair} {side}: {failure}")
            values = " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            )
            print(f"pair {pair:2d} {side:6s} {failure or 'ok':s} {values}", flush=True)

    rows = []
    for entry in entries:
        name = entry["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in results if name in run["metrics"]]
            for side, results in runs.items()
        }
        if len(values["parent"]) != args.pairs or len(values["change"]) != args.pairs:
            if any(values.values()):
                failures.append(f"{name}: missing from some runs")
            continue  # a metric this workload does not report
        rows.append(judge(entry, values["parent"], values["change"]))
    print(f"\n# {args.workload}, seed {args.seed}, {args.pairs} pairs, order alternating")
    print(report(rows))
    failures.extend(f"{row.name}: {row.verdict}" for row in rows if row.failed)
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
