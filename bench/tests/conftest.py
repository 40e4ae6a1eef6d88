"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

They live outside tier-1's ``testpaths`` on purpose: several of them run the
benchmark's command end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))


@pytest.fixture(scope="session")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """The benchmark's own command, as the driver types it."""
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        [*command, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])
