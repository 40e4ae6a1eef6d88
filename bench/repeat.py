"""Checks that the benchmark repeats: ``--noise-report`` and ``--repeat``.

``--repeat SETSxRUNS`` is the acceptance protocol of the benchmark itself:
sets of complete runs of the same checkout, run ``i`` of every set on seed
``base + i``.  For every (workload, end-to-end metric) it records each set's
median, the relative gap between the first two and each set's quartile
spread over its median, next to the metric's bound, in
``bench/REPEATABILITY.json``.  A gap above the bound fails; so does a spread
above it (``setup_s`` excepted: it is judged on its medians alone).

``--noise-report`` re-checks the choice of calibrated units on the machine at
hand: one workload measured twice, raw against calibrated disagreement.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calib
from harness import Trials, one_core, scaled_rounds, summary
from jobs import JOBS, SCHEMES

BENCH_DIR = Path(__file__).resolve().parent


def gap(first: float, second: float) -> float:
    return abs(second - first) / abs(first) if first else float(second != first)


def noise_report(name: str, seed: int, seconds: float) -> int:
    job = JOBS[name]
    rounds = scaled_rounds(job.rounds, seconds)
    medians: list[dict[str, tuple[float, float]]] = []
    kernel_ms = []
    for _ in range(2):
        trials = Trials(job, seed)
        with one_core(job):
            trials.prepare()
            for _ in range(rounds):
                for scheme in SCHEMES:
                    trials.run(scheme)
        if trials.failures:
            print("\n".join(f"FAILED {failure}" for failure in trials.failures))
            return 1
        medians.append(
            {
                scheme: (
                    statistics.median(s.raw_rate for s in samples),
                    statistics.median(s.raw_rate * calib.speed(s.calib_s) for s in samples),
                )
                for scheme, samples in trials.samples.items()
            }
        )
        kernel_ms.append(
            1e3 * statistics.median(s.calib_s for samples in trials.samples.values() for s in samples)
        )
    print(f"# {name}: two sets of {rounds} rounds, seed {seed}; "
          f"bench.calib_ms {kernel_ms[0]:.3f} then {kernel_ms[1]:.3f}")
    print(f"{'scheme':8s} {'raw msg/s (1st, 2nd)':>28s} {'gap':>7s} {'calibrated (1st, 2nd)':>28s} {'gap':>7s}")
    for scheme in SCHEMES:
        (raw_a, cal_a), (raw_b, cal_b) = medians[0][scheme], medians[1][scheme]
        print(f"{scheme:8s} {raw_a:>13.0f} {raw_b:>14.0f} {gap(raw_a, raw_b):>7.3f} "
              f"{cal_a:>13.0f} {cal_b:>14.0f} {gap(cal_a, cal_b):>7.3f}")
    return 0


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeatability(shape: str, workloads: list[str], seed: int, benchmark: dict) -> int:
    sets, _, runs = shape.partition("x")
    sets, runs = int(sets), int(runs)
    if sets < 2 or runs < 2:
        raise SystemExit("--repeat needs at least 2 sets of at least 2 runs, e.g. 2x5")
    seconds = benchmark["run_seconds"]
    values: dict[tuple[str, str], list[list[float]]] = {}
    wrong = 0
    for index in range(sets):
        for run in range(runs):
            for workload in workloads:
                result = one_run(workload, seed + run, seconds)
                wrong += not result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), [[] for _ in range(sets)])[index].append(metric["value"])
                print(f"set {index + 1} run {run + 1} {workload}: "
                      f"{'ok' if result['correct'] else 'WRONG'}", flush=True)

    bounds = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    rows = []
    for (workload, name), per_set in values.items():
        entry = bounds[name]
        medians = [statistics.median(samples) for samples in per_set]
        spreads = []
        for samples in per_set:
            median, q1, q3 = summary(samples)
            spreads.append((q3 - q1) / abs(median))
        worst = gap(medians[0], medians[1])
        ok = worst <= entry["bound"] and (name == "setup_s" or max(spreads) <= entry["bound"])
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "unit": entry["unit"],
                "bound": entry["bound"],
                "set_values": per_set,
                "set_medians": medians,
                "gap": worst,
                "set_spreads": spreads,
                "ok": ok,
            }
        )
    report = {
        "sets": sets,
        "runs_per_set": runs,
        "seeds": [seed + run for run in range(runs)],
        "run_seconds": seconds,
        "python": platform.python_version(),
        "wrong_runs": wrong,
        "results": rows,
    }
    (BENCH_DIR / "REPEATABILITY.json").write_text(json.dumps(report, indent=1) + "\n")
    bad = [row for row in rows if not row["ok"]]
    for row in bad:
        print(f"NOT REPEATABLE {row['workload']} {row['metric']}: gap {row['gap']:.4f} "
              f"spreads {max(row['set_spreads']):.4f} bound {row['bound']}")
    print(f"{len(rows) - len(bad)} of {len(rows)} (workload, metric) pairs repeat within their bounds; "
          f"{wrong} wrong runs")
    return 1 if bad or wrong else 0
