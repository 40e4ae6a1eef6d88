"""BENCHMARK.json against the builder's contract and against the code."""

import ast
import re
import subprocess
import sys

from conftest import BENCH_DIR

import jobs

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128


def test_names_units_directions_and_bounds(spec):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.fullmatch(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("higher", "lower")


def test_setup_metric_has_the_largest_bound(spec):
    by_name = {entry["name"]: entry for entry in spec["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])


def test_spec_matches_the_jobs(spec):
    assert spec["run_seconds"] == jobs.RUN_SECONDS
    assert [(entry["name"], entry["why"]) for entry in spec["workloads"]] == [
        (job.name, job.why) for job in jobs.JOBS.values()
    ]
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    for scheme in jobs.SCHEMES:
        assert {f"msgs_per_s.{scheme}", f"balance.{scheme}"} <= end_to_end


def test_calibration_kernel_is_independent_of_the_program():
    tree = ast.parse((BENCH_DIR / "calib.py").read_text())
    imported = {
        (node.module if isinstance(node, ast.ImportFrom) else alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == {"__future__", "time"}
    probe = "import sys, calib; calib.kernel(); print(sorted(m for m in sys.modules if m.split('.')[0] in ('repro', 'numpy')))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR, capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]", done.stderr
