"""The command end to end: result shape, determinism, trace closure, bare
checkout, and that no process outlives it."""

import json
import os
import shutil
import signal
import subprocess
import time
from pathlib import Path

from conftest import BENCH_DIR, ROOT, result_of, run_benchmark

import tracing

#: Short runs: two rounds of the end-to-end run, two of the traced run.
QUICK = ("--seconds", "1")


def deterministic(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.startswith(("balance.", "replication."))
    }


def test_result_shape_and_seeded_determinism(spec):
    first = result_of(run_benchmark("--workload", "sim_hot", "--seed", "11", "--trace", "0", *QUICK))
    again = result_of(run_benchmark("--workload", "sim_hot", "--seed", "11", "--trace", "0", *QUICK))
    other = result_of(run_benchmark("--workload", "sim_hot", "--seed", "12", "--trace", "0", *QUICK))

    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] is True and first["failed"] == 0 and first["attempted"] >= 8
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    assert {name: metric["unit"] for name, metric in first["metrics"].items()} == units
    assert all(metric["value"] > 0 for metric in first["metrics"].values()), "never 0"

    assert deterministic(first) == deterministic(again), "identical to the last digit"
    assert deterministic(first) != deterministic(other), "--seed changes the inputs"
    assert first["metrics"]["setup_s"]["value"] != again["metrics"]["setup_s"]["value"]


def check_trace(workload: str, spec: dict) -> dict:
    result = result_of(run_benchmark("--workload", workload, "--seed", "11", "--trace", "1", *QUICK))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in spec["per_layer"]}

    spans = [json.loads(line) for line in (BENCH_DIR / "out" / f"trace-{workload}.jsonl").read_text().splitlines()]
    assert spans and all(
        set(span) == {"name", "trial", "parent", "start", "end", "counts"} for span in spans
    )
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    assert min(tracing.self_seconds(spans)) >= 0.0, "children never cover more than their parent"
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_trace_closes_on_the_simulator(spec):
    values = check_trace("sim_hot", spec)
    for scheme in ("KG", "PKG", "D-C", "W-C"):
        trial = values[f"simulation.run_ns_per_msg.{scheme}"]
        assert values[f"simulation.engine_self_ns_per_msg.{scheme}"] >= -0.02 * trial
        assert values[f"partitioning.select_self_ns_per_msg.{scheme}"] >= -0.02 * trial
        assert values[f"runtime.capacity_efficiency.{scheme}"] == 0.0, "no service time modelled"


def test_trace_closes_on_the_cluster(spec):
    values = check_trace("cluster_io", spec)
    for scheme in ("KG", "PKG", "D-C", "W-C"):
        trial = values[f"runtime.cluster_ns_per_msg.{scheme}"]
        assert values[f"runtime.transport_remainder_ns_per_msg.{scheme}"] >= -0.02 * trial
        assert 0.0 < values[f"runtime.hot_worker_busy_share.{scheme}"] <= 1.0
    # The paper's ordering, made physical: the hottest worker sets the rate.
    assert values["runtime.cluster_ns_per_msg.D-C"] * 1.5 < values["runtime.cluster_ns_per_msg.PKG"]
    assert values["runtime.cluster_ns_per_msg.PKG"] * 1.5 < values["runtime.cluster_ns_per_msg.KG"]


def test_no_program_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "sim_hot", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def session_members(session: int) -> list[str]:
    """``pid state`` of every process, zombies included, in ``session``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                state, _ppid, _pgrp, sid = (entry / "stat").read_text().rsplit(")", 1)[1].split()[:4]
            except OSError:
                continue  # ended while we looked
            if int(sid) == session:
                found.append(f"{entry.name} {state}")
    return found


def start_cluster_run(seconds: str) -> subprocess.Popen:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.Popen(
        [*command, "--workload", "cluster_io", "--seed", "5", "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, start_new_session=True,
    )


def test_nothing_outlives_the_command():
    # The mesh's workers are joined by the runtime; the resource trackers of
    # this interpreter and of the five set-up probes end only after their
    # parents, so the moment the command returns is the moment to look.
    run = start_cluster_run("1")
    out, _ = run.communicate(timeout=300)
    assert session_members(run.pid) == []
    assert run.returncode == 0 and json.loads(out.strip().splitlines()[-1])["correct"] is True


def test_nothing_outlives_an_interrupted_command():
    rings_before = set(os.listdir("/dev/shm"))
    run = start_cluster_run("12")
    time.sleep(4.0)  # oracles done, a mesh is up
    assert len(session_members(run.pid)) > 1
    run.send_signal(signal.SIGTERM)
    run.communicate(timeout=60)
    assert session_members(run.pid) == []
    assert run.returncode != 0
    assert set(os.listdir("/dev/shm")) <= rings_before, "the tracker unlinked the rings"
