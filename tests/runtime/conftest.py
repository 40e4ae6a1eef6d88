"""Fixtures for the runtime tests.

The leak check is autouse: every runtime test — including the chaos ones
that kill workers mid-stream — must leave ``/dev/shm`` exactly as it found
it.  ``run_cluster`` owns every shared-memory segment it creates and
unlinks them in its ``finally`` block even when a run crashes, degrades or
raises; a segment surviving a test is a real resource leak, not noise.
The same holds for descriptors: the pipes of a run (delta, result,
control, one doorbell per ring) and the sentinels of its processes are all
closed by the time ``run_cluster`` returns, through a crash and a respawn
too, so the coordinator's ``/proc/self/fd`` must not count more than it
did before the test.
"""

from __future__ import annotations

import gc
import glob
import os
from multiprocessing import resource_tracker

import pytest

_SHM_DIR = "/dev/shm"
_FD_DIR = "/proc/self/fd"


def _shm_segments() -> set[str]:
    # CPython names multiprocessing.shared_memory segments psm_<token>.
    return set(glob.glob(os.path.join(_SHM_DIR, "psm_*")))


def _open_descriptors() -> list[str]:
    """What each descriptor of this process points at, sorted."""
    links = []
    for fd in os.listdir(_FD_DIR):
        try:
            links.append(os.readlink(os.path.join(_FD_DIR, fd)))
        except OSError:  # the descriptor listdir itself was using
            pass
    return sorted(links)


@pytest.fixture(autouse=True)
def no_leaked_shared_memory():
    """Assert the test left no shared-memory segment or descriptor behind."""
    if not os.path.isdir(_SHM_DIR):  # non-Linux: nothing to observe
        yield
        return
    # The first shared-memory block of the session starts the resource
    # tracker, whose pipe then stays open for good: start it beforehand.
    resource_tracker.ensure_running()
    gc.collect()
    segments_before = _shm_segments()
    descriptors_before = _open_descriptors()
    yield
    # Views pinned by collectable cycles would hold mappings open; collect
    # before measuring so the check sees only genuine leaks.
    gc.collect()
    leaked = _shm_segments() - segments_before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    descriptors_after = _open_descriptors()
    assert len(descriptors_after) <= len(descriptors_before), (
        f"descriptors open before the test: {descriptors_before}, "
        f"after: {descriptors_after}"
    )
