#!/usr/bin/env python
"""Interleaved A/B of the repo benchmark between two checkouts.

    python benchmarks/ab_pairs.py PARENT_DIR CHANGE_DIR --workload sim_hot \
        [--seed 2016] [--pairs 10]

Runs each checkout's own benchmark command (``BENCHMARK.json``'s
``python3 bench/run.py``) with ``--workload W --seed S`` and reads the JSON
object each run prints last.  Every pair is three runs: the parent, the
change and a *control*, a second copy of the parent (the A/A leg).  The
order rotates from pair to pair, so no side always inherits another's warm
machine.

The trees run from sibling paths of equal length: the tool copies parent,
change and control into one fresh staging directory (``--stage-dir``,
default the system's temporary directory; removed at the end), as ``a``,
``b`` and ``c``.  Every run records its working directory, the size of its
environment and its interpreter's ``sys.flags``.

Every run is echoed as it finishes; then, per end-to-end metric of the
parent's ``BENCHMARK.json``: both sides' medians and quartiles, the pairs
the change won, the parent's inter-quartile range, the A/A verdict (parent
against control, by the same rule) and a verdict by the rule of the
``choosing-metrics`` guide, section 8:

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
``instrument-noisy``
    the parent read differently from itself: its A/A verdict is a gain, a
    regression or a changed count, or the change claims a gain or a
    regression while the A/A leg reads anything but unchanged.  A claim
    the instrument makes about identical code is no claim.

A run that reports a failed trial, ``"correct": false`` or no result at all
fails the comparison; so do ``regression``, ``CHANGED`` and
``instrument-noisy``.  Exit code 1 then, 0 otherwise.  The tool edits
nothing in either checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

#: Share of all pairs the change must win for a gain (ties win for nobody).
PAIRS_TO_WIN = 0.9

#: Metrics that are deterministic given the workload seed (see the docstring).
COUNTS = ("balance.", "replication.")

#: The three trees of every pair, in the order pair 0 runs them.
SIDES = ("parent", "change", "control")

#: What a staged copy leaves out: history, caches and run outputs.
_UNSTAGED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"}

#: Printed by the child interpreter of each run: what it ran under.
_CONDITIONS = (
    "import json, os, sys; print(json.dumps({'cwd': os.getcwd(), "
    "'env_bytes': sum(len(k) + len(v) + 2 for k, v in os.environ.items()), "
    "'flags': {name: getattr(sys.flags, name) for name in type(sys.flags).__match_args__}}))"
)


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
    control: str = ""  # the A/A verdict (parent against control), when run

    @property
    def parent_iqr(self) -> float:
        return self.parent[2] - self.parent[1]

    @property
    def ratio(self) -> float:
        """Change median over parent median (base: the parent)."""
        return self.change[0] / self.parent[0] if self.parent[0] else float("nan")

    @property
    def failed(self) -> bool:
        return self.verdict in ("regression", "CHANGED", "instrument-noisy")


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


def judge_with_control(
    entry: dict, parent: list[float], change: list[float], control: list[float]
) -> Row:
    """:func:`judge` of the change, overruled when the A/A leg is noisy.

    ``control[i]`` is the parent's second copy in pair ``i``.
    """
    row = judge(entry, parent, change)
    aa = judge(entry, parent, control).verdict
    noisy = aa in ("gain", "regression", "CHANGED") or (
        row.verdict in ("gain", "regression") and aa not in ("unchanged", "identical")
    )
    return replace(row, verdict="instrument-noisy" if noisy else row.verdict, control=aa)


def stage(tree: Path, target: Path) -> Path:
    """Copy a checkout to ``target`` without its history or run outputs."""

    def unstaged(directory: str, names: list[str]) -> set[str]:
        skip = {name for name in names if name in _UNSTAGED or name.endswith(".egg-info")}
        if Path(directory).name == "bench" and "out" in names:
            skip.add("out")
        return skip

    shutil.copytree(tree, target, ignore=unstaged, symlinks=True)
    return target


def conditions(checkout: Path, command: list[str]) -> dict:
    """The working directory, environment size and ``sys.flags`` a run sees."""
    done = subprocess.run(
        [command[0], "-c", _CONDITIONS], cwd=checkout, capture_output=True, text=True
    )
    try:
        return json.loads(done.stdout)
    except ValueError:
        return {"cwd": str(checkout), "env_bytes": None, "flags": None}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result object, or a failed one.

    Either way it carries the run's ``conditions`` (see :func:`conditions`).
    """
    command = json.loads((checkout / "BENCHMARK.json").read_text())["command"]
    ran_under = conditions(checkout, command)
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
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": detail}
    return {**result, "conditions": ran_under}


def describe(ran_under: dict) -> str:
    """One run's conditions, short: path, environment bytes, non-zero flags."""
    flags = ran_under.get("flags") or {}
    set_flags = ",".join(f"{name}={int(value)}" for name, value in sorted(flags.items()) if value)
    return f"cwd={ran_under.get('cwd')} env={ran_under.get('env_bytes')}B flags={set_flags or '-'}"


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
        f"{'ratio':>7s} {'won':>6s} {'parent IQR':>11s} {'A/A':>10s}  verdict"
    ]
    for row in rows:
        cells = [
            "{:.6g} [{:.6g}, {:.6g}]".format(*side) for side in (row.parent, row.change)
        ]
        lines.append(
            f"{row.name:18s} {cells[0]:>38s} {cells[1]:>38s} {row.ratio:>6.3f}x "
            f"{row.won:>3d}/{row.pairs:<2d} {row.parent_iqr:>11.4g} {row.control:>10s}  "
            f"{row.verdict}  ({row.unit})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Verdicts: gain, regression, unresolved, unchanged, identical, CHANGED, "
        "instrument-noisy (see the module docstring); exit 1 on a failed run, a regression, "
        "a changed count or a noisy A/A leg.",
    )
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR", help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one of BENCHMARK.json's workloads")
    parser.add_argument("--seed", type=int, default=2016, help="seed of the streams (default: bench/run.py's)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    parser.add_argument(
        "--stage-dir", type=Path, default=None,
        help="where the staged copies go (default: the system's temporary directory)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"]
    staging = Path(tempfile.mkdtemp(prefix="ab-", dir=args.stage_dir))
    try:
        trees = {
            side: stage(tree.resolve(), staging / slot)
            for side, tree, slot in zip(SIDES, (args.parent, args.change, args.parent), "abc")
        }
        return compare(trees, entries, args.workload, args.seed, args.pairs)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def compare(trees: dict[str, Path], entries: list[dict], workload: str, seed: int, pairs: int) -> int:
    """Run the interleaved pairs over ``trees`` and print runs and verdicts."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    failures: list[str] = []
    for pair in range(pairs):
        first = pair % len(SIDES)
        for side in SIDES[first:] + SIDES[:first]:
            result = run_once(trees[side], workload, seed)
            runs[side].append(result)
            failure = run_failure(result)
            if failure:
                failures.append(f"pair {pair} {side}: {failure}")
            values = " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            )
            print(
                f"pair {pair:2d} {side:7s} {failure or 'ok':s} [{describe(result['conditions'])}] {values}",
                flush=True,
            )

    rows = []
    for entry in entries:
        name = entry["name"]
        values = {
            side: [run["metrics"][name]["value"] for run in results if name in run["metrics"]]
            for side, results in runs.items()
        }
        if any(len(side_values) != pairs for side_values in values.values()):
            if any(values.values()):
                failures.append(f"{name}: missing from some runs")
            continue  # a metric this workload does not report
        rows.append(judge_with_control(entry, values["parent"], values["change"], values["control"]))
    print(f"\n# {workload}, seed {seed}, {pairs} pairs, order rotating, A/A control in every pair")
    print(report(rows))
    failures.extend(f"{row.name}: {row.verdict} (A/A {row.control})" for row in rows if row.failed)
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
