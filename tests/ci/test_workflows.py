"""Dry validation of the GitHub Actions workflows.

The container running the tier-1 suite has no GitHub runner (nor ``act``),
so this is the executable substitute: parse both workflow files, assert the
invariants docs/ci.md promises (job set, interpreter matrix, suite smoke,
bench guard wiring), and check that every repo path a job invokes actually
exists.  Editing a workflow out of sync with the docs/policy fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKFLOWS = REPO_ROOT / ".github" / "workflows"


def _load(name: str) -> dict:
    path = WORKFLOWS / name
    assert path.is_file(), f"missing workflow {path}"
    document = yaml.safe_load(path.read_text(encoding="utf-8"))
    assert isinstance(document, dict), f"{name} is not a mapping"
    return document


def _job_commands(job: dict) -> str:
    return "\n".join(
        step.get("run", "") for step in job.get("steps", []) if "run" in step
    )


def _step_comment(workflow: str, step_name: str) -> str:
    """The comment block directly above ``- name: <step_name>``, as one line.

    YAML drops comments on load, and a gate's *reason* lives there: the
    phrases a later edit must not lose are pinned against this text.
    """
    lines = (WORKFLOWS / workflow).read_text(encoding="utf-8").splitlines()
    index = next(
        i for i, line in enumerate(lines) if line.strip() == f"- name: {step_name}"
    )
    comment: list[str] = []
    while index > 0 and lines[index - 1].strip().startswith("#"):
        index -= 1
        comment.insert(0, lines[index].strip().lstrip("# "))
    return " ".join(comment)


@pytest.fixture(scope="module")
def ci() -> dict:
    return _load("ci.yml")


@pytest.fixture(scope="module")
def bench() -> dict:
    return _load("bench.yml")


class TestCiWorkflow:
    def test_triggers_on_push_and_pull_request(self, ci):
        # YAML 1.1 parses the bare key `on` as boolean True.
        triggers = ci.get("on", ci.get(True))
        assert "push" in triggers and "pull_request" in triggers

    def test_has_lint_tests_and_suite_smoke_jobs(self, ci):
        assert {
            "lint",
            "tests",
            "suite-smoke",
            "scenario-regression",
            "bench-smoke",
            "cluster-smoke",
            "chaos-smoke",
        } <= set(ci["jobs"])

    def test_lint_runs_ruff_over_all_source_trees(self, ci):
        commands = _job_commands(ci["jobs"]["lint"])
        assert "ruff check" in commands
        for tree in ("src", "tests", "benchmarks", "examples"):
            assert tree in commands

    def test_tests_matrix_covers_310_to_313(self, ci):
        # D-Choices' golden d table (tests/analysis/test_choices.py) must hold
        # on every interpreter; 3.12 changed builtin float ``sum``.
        matrix = ci["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
        assert [str(version) for version in matrix] == ["3.10", "3.11", "3.12", "3.13"]

    def test_tests_install_editable_and_run_tier1(self, ci):
        commands = _job_commands(ci["jobs"]["tests"])
        assert "pip install -e .[test]" in commands
        assert "pytest -x -q" in commands
        assert "PYTHONPATH" not in commands  # the editable install suffices

    def test_suite_smoke_runs_tiny_scale_twice(self, ci):
        commands = _job_commands(ci["jobs"]["suite-smoke"])
        assert commands.count("suite run --scale tiny") >= 2
        # The warm run must fail on recomputed or failed cells.
        assert "computed|failed" in commands

    def test_suite_smoke_exercises_dataflow_experiment(self, ci):
        # The multi-stage topology runs in both execution modes: the
        # scalar reference and micro-batched.
        commands = _job_commands(ci["jobs"]["suite-smoke"])
        assert "run fig17 --scale tiny --mode scalar" in commands
        assert "run fig17 --scale tiny --mode columnar:1024" in commands
        assert "--batch-size" not in commands  # the flag is gone

    def test_scenario_regression_job_runs_the_expected_suite(self, ci):
        # The catalog's expected: bounds are CI assertions — the job must
        # run the pytest suite that collects them plus the sweep smoke.
        commands = _job_commands(ci["jobs"]["scenario-regression"])
        assert "pytest -q tests/scenarios" in commands
        assert "run scenarios --scale tiny" in commands

    def test_scenario_regression_job_smokes_the_adaptive_scheme(self, ci):
        # AD must route a cataloged drift scenario end to end through the
        # CLI and stay within the catalog's expected bounds.
        commands = _job_commands(ci["jobs"]["scenario-regression"])
        assert "scenario run drift_mixture --scheme AD" in commands

    def test_suite_smoke_exercises_adaptive_experiment(self, ci):
        # The fig18 drift sweep runs AD against every static scheme at
        # tiny scale on each PR (the win claim is pinned in
        # tests/experiments/test_experiment_drivers.py).
        commands = _job_commands(ci["jobs"]["suite-smoke"])
        assert "run fig18 --scale tiny" in commands

    def test_cluster_smoke_runs_the_marked_e2e_tests(self, ci):
        # The cluster tests spawn real processes and are opt-in via the
        # `cluster` marker; the smoke job is where they must run.
        commands = _job_commands(ci["jobs"]["cluster-smoke"])
        assert "pytest -q -m cluster tests/runtime" in commands

    def test_cluster_smoke_guards_the_scaling_floor(self, ci):
        # The reduced bench must feed the single-file floor guard: 4-worker
        # PKG aggregate throughput >= 1.5x the 1-worker run.  The ratio is
        # measured on one runner, so the floor is hardware-independent.
        commands = _job_commands(ci["jobs"]["cluster-smoke"])
        assert "bench_cluster_runtime.py --quick" in commands
        assert "--bench-file bench-cluster-ci.json" in commands
        assert "--metric scaling_vs_1w" in commands
        assert "--schemes PKG@w4" in commands
        assert "--min-value 1.5" in commands

    def test_chaos_smoke_runs_the_fault_injection_matrix(self, ci):
        # The chaos tests inject deterministic crash/hang/degrade/salvage
        # faults into real processes and assert exact stream conservation;
        # they are opt-in via the `chaos` marker and must run on every PR.
        commands = _job_commands(ci["jobs"]["chaos-smoke"])
        assert "pytest -q -m chaos tests/runtime" in commands

    def test_chaos_smoke_validates_a_recovered_cli_run(self, ci):
        # The CLI smoke must inject a mid-run crash, validate against the
        # simulator, and tolerate exit 3 (degraded-but-complete) while
        # still failing on exit 1 (conservation/validation violation).
        commands = _job_commands(ci["jobs"]["chaos-smoke"])
        assert "cluster-run --inject crash@w1:2000" in commands
        assert "--validate" in commands
        assert "test $? -eq 3" in commands

    def test_pr_job_smokes_the_routing_bench_in_one_step(self, ci):
        # A PR that knocks an id kernel off its fast path fails here, not
        # a day later in the nightly guard.  "batch" and "columnar" time
        # the same kernel with and without interning, so one guard step
        # watches both metrics.
        steps = [
            step.get("run", "")
            for step in ci["jobs"]["suite-smoke"]["steps"]
            if "check_bench_regression.py" in step.get("run", "")
        ]
        assert len(steps) == 1
        assert "--metric batch_speedup columnar_speedup" in steps[0]
        assert "--schemes PKG D-C W-C" in steps[0]
        assert "--threshold 0.50" in steps[0]

    def test_bench_smoke_runs_the_repo_benchmark(self, ci):
        # The repo benchmark (BENCHMARK.json) judges every later claim, so
        # each PR proves it still runs: its own tests, then four short
        # workloads — the string-key batched API, the head path under
        # columnar span accounting, the sketch's eviction path and the
        # process mesh — whose result lines must report correct trials.
        commands = _job_commands(ci["jobs"]["bench-smoke"])
        assert "python -m pytest bench/tests -q" in commands
        for workload in ("sim_keys", "sim_hot", "sim_wide", "cluster_transport"):
            assert f"python3 bench/run.py --workload {workload} --seconds 3" in commands
        assert commands.count("grep -q '\"correct\": true'") == 4

    def test_bench_smoke_gates_the_d_choices_kernel_on_sim_hot(self, ci):
        # sim_hot is the one CI workload on which D-Choices' d moves dozens
        # of times per trial, so it is where deferred placement and the
        # per-key scan floors are held to the per-message oracle at full
        # chunk size: the step must stay, and must fail on a wrong trial.
        steps = [
            step.get("run", "")
            for step in ci["jobs"]["bench-smoke"]["steps"]
            if "--workload sim_hot" in step.get("run", "")
        ]
        assert len(steps) == 1
        assert "tee bench-smoke-hot.log" in steps[0]
        assert "tail -n 1 bench-smoke-hot.log | grep -q '\"correct\": true'" in steps[0]

    def test_bench_smoke_gates_the_eviction_path_on_sim_wide(self, ci):
        # sim_wide is the one CI workload on which most messages miss the
        # sketch (~33k evictions per trial through 1,000-counter summaries),
        # so it is where the bulk loop's inlined miss path is held to the
        # per-message oracle: the step must stay, and must fail on a wrong
        # trial.
        steps = [
            step.get("run", "")
            for step in ci["jobs"]["bench-smoke"]["steps"]
            if "--workload sim_wide" in step.get("run", "")
        ]
        assert len(steps) == 1
        assert "tee bench-smoke-wide.log" in steps[0]
        assert "tail -n 1 bench-smoke-wide.log | grep -q '\"correct\": true'" in steps[0]

    def test_bench_smoke_says_what_holds_the_source_layer_to_the_scalar_oracle(self):
        # The vectorised fold and the bulk issue leave no per-key Python
        # path to compare against inside src/: what holds them is that the
        # benchmark's oracle runs mode="scalar" — one key at a time through
        # candidates(key) / intern(key) and the scalar _key_to_int.  The
        # two steps say so, so nobody "simplifies" the oracle to columnar.
        keys = _step_comment("ci.yml", "sim_keys workload (3 s), result line must be correct")
        for phrase in (
            "gate on the vectorised fold",
            "hashing.fold_keys",
            'mode="scalar"',
            "one key at a time through candidates(key) / intern(key)",
            "scalar _key_to_int",
            "a wrong fold moves a load vector",
        ):
            assert phrase in keys, phrase
        wide = _step_comment("ci.yml", "sim_wide workload (3 s), result line must be correct")
        for phrase in (
            "gate on the bulk issue",
            "one dict.update",
            "scalar oracle interns one key at a time",
            "a wrong id moves a load vector",
            "held to rng.choice by tests/workloads/test_draws_are_rng_choice.py",
        ):
            assert phrase in wide, phrase
        assert (REPO_ROOT / "tests/workloads/test_draws_are_rng_choice.py").is_file()

    def test_bench_smoke_gates_the_process_mesh_on_cluster_transport(self, ci):
        # cluster_transport is the one CI workload that runs real processes
        # with no service time, so its workers wait on their rings'
        # doorbells all trial long and every trial is held to the
        # single-source simulation by the runtime's validator: the step
        # must stay, and must fail on a wrong trial.
        steps = [
            step.get("run", "")
            for step in ci["jobs"]["bench-smoke"]["steps"]
            if "--workload cluster_transport" in step.get("run", "")
        ]
        assert len(steps) == 1
        assert "tee bench-smoke-cluster.log" in steps[0]
        assert "tail -n 1 bench-smoke-cluster.log | grep -q '\"correct\": true'" in steps[0]

    def test_bench_smoke_keeps_the_ab_tool_starting(self, ci):
        # benchmarks/ab_pairs.py runs by hand (it needs a parent checkout),
        # so CI at least imports it and parses its arguments.
        commands = _job_commands(ci["jobs"]["bench-smoke"])
        assert "python benchmarks/ab_pairs.py --help" in commands

    def test_bench_smoke_keeps_the_stream_digest_running(self, ci):
        # benchmarks/stream_digest.py is how two checkouts are shown
        # byte-identical at the source layer (run in each, diff); CI runs
        # it at the length tests/ci/test_stream_digest.py pins.
        steps = [
            step.get("run", "")
            for step in ci["jobs"]["bench-smoke"]["steps"]
            if "stream_digest.py" in step.get("run", "")
        ]
        assert steps == ["python benchmarks/stream_digest.py --messages 20000"]

    def test_bench_smoke_caps_cold_functions_at_the_recorded_count(self, ci):
        # benchmarks/reachability.py profiles every entry point; its budget
        # is the total docs/architecture.md records, so lowering one without
        # the other fails here.
        steps = [
            step.get("run", "")
            for step in ci["jobs"]["bench-smoke"]["steps"]
            if "reachability.py" in step.get("run", "")
        ]
        assert len(steps) == 1
        budget = re.fullmatch(r"python benchmarks/reachability\.py --max-cold (\d+)", steps[0])
        assert budget, steps[0]
        recorded = re.search(
            r"\*\*(\d+) cold of \d+ functions\*\*",
            (REPO_ROOT / "docs" / "architecture.md").read_text(),
        )
        assert recorded and recorded.group(1) == budget.group(1)


class TestBenchWorkflow:
    def test_nightly_and_on_demand(self, bench):
        triggers = bench.get("on", bench.get(True))
        assert "workflow_dispatch" in triggers
        assert "schedule" in triggers
        assert triggers["schedule"][0]["cron"]

    def test_runs_reduced_scale_bench(self, bench):
        commands = _job_commands(bench["jobs"]["routing-bench"])
        assert "run_routing_bench.py" in commands
        assert "--messages" in commands and "--rounds" in commands

    def test_uploads_artifact(self, bench):
        steps = bench["jobs"]["routing-bench"]["steps"]
        uploads = [
            step for step in steps
            if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert uploads, "bench guard must upload the measured JSON"

    def test_guards_batched_pkg_at_30_percent(self, bench):
        commands = _job_commands(bench["jobs"]["routing-bench"])
        assert "check_bench_regression.py" in commands
        assert "--threshold 0.30" in commands
        assert "--schemes PKG" in commands
        # Must guard the hardware-independent ratio, not absolute msg/s
        # (the baseline is committed from different hardware).
        assert "--metric batch_speedup" in commands

    def test_guards_dataflow_throughput(self, bench):
        # The nightly guard tracks the multi-stage topology's batched
        # speedup alongside raw routing (DATAFLOW-* entries in the JSON).
        commands = _job_commands(bench["jobs"]["routing-bench"])
        assert "DATAFLOW-W-C" in commands

    def test_one_guard_step_watches_both_kernel_speedups(self, bench):
        # batch_speedup and columnar_speedup time one kernel, so a single
        # step guards both for the routing schemes.  DATAFLOW-* entries
        # carry no columnar metrics and explicitly named schemes must
        # carry every guarded metric, so the dataflow entry is a second
        # invocation inside that step, not a second step.
        steps = [
            step.get("run", "")
            for step in bench["jobs"]["routing-bench"]["steps"]
            if "check_bench_regression.py" in step.get("run", "")
        ]
        assert len(steps) == 1
        routing, dataflow = steps[0].split("python benchmarks/check_bench_regression.py")[1:]
        assert "--metric batch_speedup columnar_speedup" in routing
        assert "--schemes PKG D-C W-C" in routing
        assert "DATAFLOW" not in routing
        assert "--metric batch_speedup" in dataflow
        assert "columnar_speedup" not in dataflow
        assert "--schemes DATAFLOW-W-C" in dataflow


class TestReferencedPathsExist:
    @pytest.mark.parametrize(
        "path",
        [
            "benchmarks/run_routing_bench.py",
            "benchmarks/bench_dataflow.py",
            "benchmarks/bench_cluster_runtime.py",
            "benchmarks/check_bench_regression.py",
            "benchmarks/ab_pairs.py",
            "benchmarks/stream_digest.py",
            "benchmarks/reachability.py",
            "BENCH_routing.json",
            "BENCH_cluster.json",
            "pyproject.toml",
            "docs/ci.md",
            "docs/fault_tolerance.md",
            "tests/scenarios",
            "tests/runtime",
            "bench/run.py",
            "bench/tests",
            "BENCHMARK.json",
        ],
    )
    def test_path_exists(self, path):
        assert (REPO_ROOT / path).exists(), f"workflow references missing {path}"


class TestSuitePolicy:
    def test_unraisable_exceptions_fail_the_suite(self):
        # A leaked shared-memory view surfaces only as an unraisable
        # BufferError in SharedMemory.__del__: tier-1 must fail on it.
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        section = pyproject.split("[tool.pytest.ini_options]")[1].split("\n[")[0]
        assert (
            'filterwarnings = ["error::pytest.PytestUnraisableExceptionWarning"]'
            in section
        )

    def test_nothing_references_the_retired_figure_bench_wrappers(self):
        assert not list((REPO_ROOT / "benchmarks").glob("bench_fig*"))
        referencing = [
            path
            for pattern in (".github/workflows/*.yml", "docs/*.md", "README.md")
            for path in REPO_ROOT.glob(pattern)
            if "benchmarks/bench_fig" in path.read_text(encoding="utf-8")
        ]
        assert not referencing
