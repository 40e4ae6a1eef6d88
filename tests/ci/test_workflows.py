"""Dry validation of the GitHub Actions workflows.

The container running the tier-1 suite has no GitHub runner (nor ``act``),
so this is the executable substitute: parse both workflow files, assert the
invariants docs/ci.md promises (job set, interpreter matrix, suite smoke,
bench guard wiring), and check that every repo path a job invokes actually
exists.  Editing a workflow out of sync with the docs/policy fails here.
"""

from __future__ import annotations

import json
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

    def test_newest_interpreter_diffs_the_digest_under_two_hash_salts(self, ci):
        # No output may depend on the interpreter's hash salt; the 3.13 leg
        # prints the stream digest under two salts and diffs the bytes.
        steps = [
            step
            for step in ci["jobs"]["tests"]["steps"]
            if "stream_digest.py" in step.get("run", "")
        ]
        assert len(steps) == 1
        assert steps[0]["if"] == "matrix.python-version == '3.13'"
        run = steps[0]["run"]
        salts = re.findall(r"PYTHONHASHSEED=(\d+) python benchmarks/stream_digest\.py", run)
        assert len(set(salts)) == 2
        assert "diff digest-1.txt digest-2.txt" in run

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

    def test_cluster_smoke_holds_the_scaling_floor_through_the_e2e_tests(self, ci):
        # The 4-worker PKG floor (>= 1.5x one worker, validated against the
        # simulator) is a `cluster`-marked test now, not a bench script: the
        # job runs it with the rest of the marked tests and names no retired
        # script.
        commands = _job_commands(ci["jobs"]["cluster-smoke"])
        assert "benchmarks/" not in commands
        source = (REPO_ROOT / "tests/runtime/test_cluster_e2e.py").read_text(encoding="utf-8")
        assert "scaling >= 1.5" in source
        assert "validate_against_simulation(four_config, four, tolerance=0.2)" in source

    def test_chaos_smoke_runs_the_fault_injection_matrix(self, ci):
        # The chaos tests inject deterministic crash/hang/degrade/salvage
        # faults into real processes and assert exact stream conservation;
        # they are opt-in via the `chaos` marker and must run on every PR.
        commands = _job_commands(ci["jobs"]["chaos-smoke"])
        assert "pytest -q -m chaos tests/runtime" in commands

    def test_chaos_smoke_also_runs_the_matrix_on_one_core(self, ci):
        # The repo benchmark pins the mesh to one core; the fault matrix
        # must hold there too, where the processes only ever take turns.
        commands = _job_commands(ci["jobs"]["chaos-smoke"])
        assert "taskset -c 0 python -m pytest -q -m chaos tests/runtime" in commands

    @pytest.mark.parametrize("job", ["bench-smoke", "cluster-smoke", "chaos-smoke"])
    def test_jobs_that_run_the_mesh_time_out_in_minutes(self, ci, job):
        # A cluster child that reported waits at the finish line until the
        # coordinator opens it; a line that never opens must fail the job
        # within the hour, not at GitHub's six-hour default.
        minutes = ci["jobs"][job].get("timeout-minutes")
        assert isinstance(minutes, int) and 0 < minutes <= 60

    def test_chaos_smoke_validates_a_recovered_cli_run(self, ci):
        # The CLI smoke must inject a mid-run crash, validate against the
        # simulator, and tolerate exit 3 (degraded-but-complete) while
        # still failing on exit 1 (conservation/validation violation).
        commands = _job_commands(ci["jobs"]["chaos-smoke"])
        assert "cluster-run --inject crash@w1:2000" in commands
        assert "--validate" in commands
        assert "test $? -eq 3" in commands

    def test_suite_smoke_leaves_the_kernel_speedups_to_tier1(self, ci):
        # A PR that knocks an id kernel off its fast path fails in tier-1
        # (tests/partitioning/test_kernel_speedups.py), so the suite smoke
        # runs no bench script of its own.
        commands = _job_commands(ci["jobs"]["suite-smoke"])
        assert "benchmarks/" not in commands
        assert (REPO_ROOT / "tests/partitioning/test_kernel_speedups.py").is_file()

    def test_bench_smoke_runs_the_repo_benchmark(self, ci):
        # The repo benchmark (BENCHMARK.json) judges every later claim, so
        # each PR proves it still runs: its own tests, then five short
        # workloads — the string-key batched API, the head path under
        # columnar span accounting, the sketch's eviction path, the
        # process mesh and the mesh blocking on service time — whose
        # result lines must report correct trials.
        commands = _job_commands(ci["jobs"]["bench-smoke"])
        assert "python -m pytest bench/tests -q" in commands
        for workload in ("sim_keys", "sim_hot", "sim_wide", "cluster_transport", "cluster_io"):
            assert f"python3 bench/run.py --workload {workload} --seconds 3" in commands
        assert commands.count("grep -q '\"correct\": true'") == 5

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
        # is the total docs/architecture.md records and docs/ci.md quotes,
        # so moving one without the others fails here.
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
        quoted = re.findall(
            r"benchmarks/reachability\.py --max-cold (\d+)",
            (REPO_ROOT / "docs" / "ci.md").read_text(),
        )
        assert quoted and set(quoted) == {budget.group(1)}, quoted


def _benchmark_workloads() -> list[str]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [entry["name"] for entry in spec["workloads"]]


class TestBenchWorkflow:
    def test_nightly_and_on_demand(self, bench):
        triggers = bench.get("on", bench.get(True))
        assert "workflow_dispatch" in triggers
        assert "schedule" in triggers
        assert triggers["schedule"][0]["cron"]

    def test_names_every_benchmark_workload(self, bench):
        (job,) = bench["jobs"].values()
        assert job["strategy"]["matrix"]["workload"] == _benchmark_workloads()

    def test_runs_ab_pairs_against_the_parent_commit(self, bench):
        (job,) = bench["jobs"].values()
        (checkout,) = [
            step for step in job["steps"] if str(step.get("uses", "")).startswith("actions/checkout")
        ]
        assert checkout["with"]["fetch-depth"] == 2
        commands = _job_commands(job)
        assert "git worktree add ../parent HEAD~1" in commands
        assert (
            "python benchmarks/ab_pairs.py ../parent . --workload ${{ matrix.workload }}"
            in commands
        )
        assert "--pairs 10" in commands

    def test_does_not_swallow_the_exit_code(self, bench):
        # A regression, a changed count or a noisy A/A leg exits 1; the
        # step that tees the report must fail with it.
        (job,) = bench["jobs"].values()
        (step,) = [step for step in job["steps"] if "ab_pairs.py" in step.get("run", "")]
        assert step["run"].startswith("set -o pipefail\n")
        assert "continue-on-error" not in step and "continue-on-error" not in job
        assert "|| true" not in step["run"] and "|| exit 0" not in step["run"]

    def test_uploads_the_report_even_when_it_fails(self, bench):
        (job,) = bench["jobs"].values()
        (upload,) = [
            step for step in job["steps"] if "upload-artifact" in str(step.get("uses", ""))
        ]
        assert upload["if"] == "always()"
        assert upload["with"]["path"] == "ab-${{ matrix.workload }}.txt"


#: Where CI, the docs and the verify recipe name scripts and bench files.
_NAMING_FILES = (
    "README.md",
    "docs/*.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/*.yml",
)
_NAMED_PATH = re.compile(r"\b(?:benchmarks/\w+\.py|bench/\w+\.py|BENCH_\w+\.json)")


def _named_paths() -> dict[str, list[str]]:
    """Every script or bench file path named in a doc or workflow, by naming file."""
    named: dict[str, list[str]] = {}
    for pattern in _NAMING_FILES:
        for path in sorted(REPO_ROOT.glob(pattern)):
            for name in _NAMED_PATH.findall(path.read_text(encoding="utf-8")):
                named.setdefault(name, []).append(str(path.relative_to(REPO_ROOT)))
    return named


class TestReferencedPathsExist:
    def test_the_scan_sees_the_live_tools(self):
        # Not vacuous: the scan finds what CI and the docs really run.
        named = _named_paths()
        for path in (
            "benchmarks/ab_pairs.py",
            "benchmarks/stream_digest.py",
            "benchmarks/reachability.py",
            "bench/run.py",
        ):
            assert path in named, path

    @pytest.mark.parametrize("path", sorted(_named_paths()))
    def test_named_path_exists(self, path):
        assert (REPO_ROOT / path).is_file(), f"{_named_paths()[path]} name missing {path}"

    @pytest.mark.parametrize(
        "path",
        [
            "pyproject.toml",
            "docs/ci.md",
            "docs/fault_tolerance.md",
            "tests/scenarios",
            "tests/runtime",
            "bench/tests",
            "BENCHMARK.json",
        ],
    )
    def test_path_exists(self, path):
        assert (REPO_ROOT / path).exists(), f"workflow references missing {path}"


class TestSuitePolicy:
    def test_unraisable_exceptions_fail_the_suite(self):
        # An exception raised in a finaliser (a ``__del__``, a weakref
        # callback) surfaces only as an unraisable warning, never as a
        # failed test: tier-1 must fail on it.
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        section = pyproject.split("[tool.pytest.ini_options]")[1].split("\n[")[0]
        assert (
            'filterwarnings = ["error::pytest.PytestUnraisableExceptionWarning"]'
            in section
        )

    def test_nothing_references_the_retired_figure_bench_wrappers(self):
        assert not list((REPO_ROOT / "benchmarks").glob("bench_fig*"))
        # Four more pytest-benchmark scripts that no CI job, test or doc ran.
        retired = (
            "bench_ablation_load_estimation",
            "bench_ablation_threshold",
            "bench_batch_routing",
            "bench_micro_routing",
        )
        assert not [
            name for name in retired if (REPO_ROOT / "benchmarks" / f"{name}.py").exists()
        ]
        referencing = [
            path
            for pattern in (
                ".github/workflows/*.yml",
                "docs/*.md",
                "README.md",
                "benchmarks/*.py",
            )
            for path in REPO_ROOT.glob(pattern)
            for text in [path.read_text(encoding="utf-8")]
            if "benchmarks/bench_fig" in text or any(name in text for name in retired)
        ]
        assert not referencing
