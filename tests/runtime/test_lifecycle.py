"""What one run of the mesh starts, waits on and leaves behind.

``run_cluster`` puts the state block and every ring in one anonymous shared
mapping made before the fork, so it maps nothing from ``/dev/shm`` and
starts no resource tracker; its coordinator starts no thread and wakes only
for a report, a death or a tick; its children import nothing after the
fork; a death reaches the supervisor through the dead process's sentinel,
not on a snapshot tick; and its children wait at the finish line, which
every one of them opens for the coordinator, so none outlives the run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import ClusterConfig, run_cluster
from repro.runtime import runtime as runtime_module

pytestmark = [
    pytest.mark.cluster,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="cluster runtime requires the fork start method",
    ),
]

SRC = Path(__file__).resolve().parents[2] / "src"

#: Run in a fresh interpreter: two tiny runs under an audit hook that
#: reports every import made in a process other than the coordinator.
_CHILD_IMPORTS = """
import json, os, sys, tempfile

coordinator = os.getpid()
fd, path = tempfile.mkstemp()
os.unlink(path)


def hook(event, args):
    if event == "import" and os.getpid() != coordinator:
        os.write(fd, f"{os.getpid()} {args[0]}\\n".encode())


sys.addaudithook(hook)
from multiprocessing import resource_tracker

from repro.runtime import ClusterConfig, run_cluster

for seed in (0, 1):
    run_cluster(ClusterConfig(
        num_workers=2, num_messages=2_000, num_keys=100, service_ns=0, seed=seed
    ))
os.lseek(fd, 0, os.SEEK_SET)
print(json.dumps({
    "imports": os.read(fd, 1 << 20).decode().splitlines(),
    "tracker_fd": resource_tracker._resource_tracker._fd,
    "named_memory": "multiprocessing.shared_memory" in sys.modules,
}))
"""


def test_children_import_nothing_and_no_tracker_starts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_IMPORTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["imports"] == []
    assert report["tracker_fd"] is None
    assert not report["named_memory"]


def test_a_run_starts_no_thread_and_names_nothing(monkeypatch):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    # What the coordinator has mapped from /dev/shm, read at every wait of
    # the run (other processes' segments there are none of its business).
    named = []
    wait = runtime_module.wait_readable

    def mapping_wait(objects, timeout=None):
        with open("/proc/self/maps") as maps:
            named.extend(line.split()[-1] for line in maps if "/dev/shm/" in line)
        return wait(objects, timeout)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    monkeypatch.setattr(runtime_module, "wait_readable", mapping_wait)
    threads = threading.enumerate()
    result = run_cluster(ClusterConfig(num_workers=2, num_messages=4_000, num_keys=200))
    assert sum(result.worker_processed) == 4_000
    assert started == []
    assert threading.enumerate() == threads
    assert named == []


def test_the_loop_wakes_for_reports_not_on_a_poll(monkeypatch):
    # With the snapshot tick far off, the coordinator wakes only when a
    # child reports: its ready, its result.  A poll would wake it every few
    # milliseconds of a run that lasts ~0.25 s.
    waits = []
    wait = runtime_module.wait_readable

    def counting_wait(objects, timeout=None):
        waits.append(timeout)
        return wait(objects, timeout)

    monkeypatch.setattr(runtime_module, "wait_readable", counting_wait)
    config = ClusterConfig(
        num_workers=2, num_messages=10_000, num_keys=500, service_ns=50_000,
        snapshot_interval_s=30.0,
    )
    result = run_cluster(config)
    assert sum(result.worker_processed) == 10_000
    assert result.elapsed_s > 0.1
    # Ready and result of each of the three children, one wait each at most.
    assert len(waits) <= 2 * (config.num_workers + 1)
    assert result.snapshots == []  # no tick came due


def test_a_killed_worker_reaches_the_supervisor_through_its_sentinel(
    monkeypatch, tmp_path
):
    # Worker 1 SIGKILLs itself mid-stream.  Neither the heartbeat timeout
    # nor the snapshot tick is anywhere near: only the sentinel can tell.
    stamp = tmp_path / "killed_at"
    worker_main = runtime_module.worker_main

    def killed_once(worker_id, ring, state, *args):
        if worker_id == 1 and not stamp.exists():

            def kill() -> None:
                while state.worker_processed()[1] < 500:
                    time.sleep(0.001)
                stamp.write_text(repr(time.monotonic()))
                os.kill(os.getpid(), signal.SIGKILL)

            threading.Thread(target=kill, daemon=True).start()
        return worker_main(worker_id, ring, state, *args)

    handled = []
    handle = runtime_module._Supervisor.handle

    def timed_handle(self, worker_id, process, reason, *args, **kwargs):
        handled.append((time.monotonic(), worker_id, reason))
        return handle(self, worker_id, process, reason, *args, **kwargs)

    monkeypatch.setattr(runtime_module, "worker_main", killed_once)
    monkeypatch.setattr(runtime_module._Supervisor, "handle", timed_handle)
    config = ClusterConfig(
        num_workers=2, num_messages=20_000, num_keys=1_000, service_ns=50_000,
        snapshot_interval_s=30.0, heartbeat_timeout_s=60.0, max_restarts=1,
    )
    result = run_cluster(config)
    killed_at = float(stamp.read_text())
    ((handled_at, worker_id, reason),) = handled
    assert worker_id == 1 and f"exit code {-signal.SIGKILL}" in reason
    assert handled_at - killed_at < 1.0  # a tick is 30 s away
    assert result.recovered
    # A worker killed outright reports nothing; the frame it held (popped,
    # not yet delivered) is counted from its claim in shared state.
    assert sum(result.worker_processed) + result.messages_lost == 20_000


#: A small stream on small rings, so an injected crash lands mid-stream.
_FINISH_RUN = dict(
    scheme="PKG", num_workers=4, num_messages=20_000, num_keys=2_000,
    service_ns=10_000, mode="columnar:256", ring_capacity_words=2_048,
)


@pytest.mark.parametrize(
    ("overrides", "recovery"),
    [
        pytest.param({}, "none", id="clean"),
        pytest.param(
            {"inject": "crash@w1:2000", "max_restarts": 1}, "respawn",
            id="respawn", marks=pytest.mark.chaos,
        ),
        pytest.param(
            {"inject": "crash@w1:2000", "max_restarts": 0}, "degrade",
            id="degrade", marks=pytest.mark.chaos,
        ),
    ],
)
def test_no_child_outlives_the_run(overrides, recovery):
    # Reported children wait at the finish line, which opens only when the
    # coordinator closes the last write end: a copy left open in any child
    # (a respawn's included) would hold the joins for their 10 s timeout.
    before = set(multiprocessing.active_children())
    started = time.perf_counter()
    result = run_cluster(ClusterConfig(**_FINISH_RUN, **overrides))
    wall = time.perf_counter() - started
    assert set(multiprocessing.active_children()) <= before
    assert wall - result.elapsed_s < 2.0
    assert (result.restarts, result.degraded) == {
        "none": (0, False), "respawn": (1, False), "degrade": (0, True),
    }[recovery]
    for worker, first_frame_s in zip(result.worker_results, result.first_frame_s):
        if worker.processed and not worker.salvaged:
            assert 0 < first_frame_s < result.elapsed_s
    summary = result.summary()
    assert summary["first_frame_ms"] == round(max(result.first_frame_s) * 1e3, 3)
    assert summary["last_overrun_ms"] == round(max(result.last_overrun_s) * 1e3, 3)
