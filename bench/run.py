"""The repo benchmark: ``python bench/run.py [--workload NAME] [--seed N] [--trace]``.

Prints every metric by name with its unit, then — as the last line of each
workload — one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--trace`` the metrics are the end-to-end ones of BENCHMARK.json,
timed with tracing off; with ``--trace`` they are the per-layer ones, from a
separate shorter run that also writes ``bench/out/trace-<workload>.jsonl``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

DEFAULT_SEED = 2016


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload; print its metrics, then its result object."""
    import harness
    import jobs

    job = jobs.JOBS[name]
    with harness.one_core(job):
        if trace:
            import layers

            metrics, trials = layers.traced(job, seed, seconds, BENCH_DIR / "out")
            wanted = spec()["per_layer"]
        else:
            metrics, trials = harness.end_to_end(job, seed, seconds)
            wanted = spec()["end_to_end"]
    for entry in wanted:
        metric = metrics.get(entry["name"])
        if metric is not None:
            print(f"{entry['name']:46s} {metric.value:>16.6f} {entry['unit']:12s} {metric.note}".rstrip())
    for failure in trials.failures:
        print(f"FAILED {failure}")
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        print(f"MISSING {' '.join(missing)}")
    result = {
        "correct": not trials.failures and not missing,
        "attempted": trials.attempted,
        "failed": len(trials.failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]].value, "unit": entry["unit"]}
            for entry in wanted
            if entry["name"] in metrics
        },
    }
    print(json.dumps(result))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's workloads (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the streams")
    parser.add_argument("--seconds", type=float, help="measuring time; scales the round counts")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: the per-layer traced run instead of the end-to-end run")
    parser.add_argument("--noise-report", action="store_true",
                        help="run one workload twice; print raw vs calibrated disagreement")
    parser.add_argument("--repeat", metavar="SETSxRUNS",
                        help="e.g. 2x5: sets of complete runs, written to bench/REPEATABILITY.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = spec()
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")

    # From here on this process only supervises; the fork below does the run.
    import contain

    code = contain.supervise()
    if code is not None:
        return code

    if args.repeat or args.noise_report:
        import repeat

        if args.repeat:
            return repeat.repeatability(args.repeat, names, args.seed, benchmark)
        return repeat.noise_report(args.workload or names[0], args.seed, seconds)

    selected = [args.workload] if args.workload else names
    # Wrong outputs are reported in the result object ("correct": false), not
    # by the exit code: a non-zero exit means no result could be produced.
    for name in selected:
        run_workload(name, args.seed, seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
