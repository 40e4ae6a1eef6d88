"""Fixtures for the runtime tests.

The leak check is autouse: every runtime test — including the chaos ones
that kill workers mid-stream — must leave the coordinator's descriptors as
it found them.  The pipes of a run (delta, result, control, the start gate,
one doorbell per ring) and the sentinels of its processes are all closed by
the time ``run_cluster`` returns, through a crash and a respawn too, so the
coordinator's ``/proc/self/fd`` must not count more than it did before the
test.  (The shared mapping is anonymous: there is no named segment to
leak.)
"""

from __future__ import annotations

import gc
import os

import pytest

_FD_DIR = "/proc/self/fd"


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
def no_leaked_descriptors():
    """Assert the test left no descriptor behind."""
    if not os.path.isdir(_FD_DIR):  # non-Linux: nothing to observe
        yield
        return
    gc.collect()
    descriptors_before = _open_descriptors()
    yield
    # Objects pinned by collectable cycles would hold descriptors open;
    # collect before measuring so the check sees only genuine leaks.
    gc.collect()
    descriptors_after = _open_descriptors()
    assert len(descriptors_after) <= len(descriptors_before), (
        f"descriptors open before the test: {descriptors_before}, "
        f"after: {descriptors_after}"
    )
