"""Times one cold set-up in this (fresh) interpreter.

Set-up is everything between starting Python and "the first timed trial
could start": importing ``repro``, building the job and one warm-up trial
per scheme at 1/10 length (on ``cluster_*`` that spawns and tears down the
process mesh four times).  The harness runs this file in several fresh
subprocesses per run; the kernel passes at both ends let it express the
result in nominal-machine seconds and are excluded from it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

import calib  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    # The first pass in a new process pays for allocator growth: median of 3.
    before = [calib.kernel() for _ in range(3)]
    import jobs

    job = jobs.JOBS[args.workload]
    for scheme in jobs.SCHEMES:
        job.trial(scheme, args.seed, job.messages // 10)
    ready = time.perf_counter()
    after = [calib.kernel() for _ in range(3)]
    print(
        json.dumps(
            {
                "setup_s": ready - _START - sum(before),
                "calib_s": (statistics.median(before) + statistics.median(after)) / 2,
            }
        )
    )


if __name__ == "__main__":
    main()
