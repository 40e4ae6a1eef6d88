"""Runs the benchmark in a child and outlives every process it starts.

The benchmark starts processes it does not own: ``multiprocessing``'s
resource tracker (one per interpreter that maps a shared-memory ring — this
one and every set-up probe), which only ends some time *after* its parent has
exited, and, on a crash or a timeout, whatever a half-torn-down mesh leaves
behind.  A process that outlives the command could serve or disturb the next
run, so the command itself is only a supervisor: it forks the real run into a
process group of its own, adopts every orphan the run leaves
(``PR_SET_CHILD_SUBREAPER``), and does not return before the last of them has
ended and been reaped — killing what is left after a grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36

#: How long processes the finished run left behind may take to end by
#: themselves (a resource tracker needs milliseconds) before they are killed.
GRACE_S = 10.0

#: The same for an interrupted run, whose group is sent SIGTERM first: the
#: resource tracker ignores it, sees its owners die and unlinks their rings.
INTERRUPTED_GRACE_S = 3.0


def adopt_orphans() -> None:
    """Make orphaned descendants children of this process instead of init's.

    Where the call does not exist only direct children can be waited for.
    """
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_group(group: int, grace: float) -> None:
    """Wait for every child and adopted orphan; kill ``group`` after ``grace``."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # bounded, and must finish
    kill_at = time.monotonic() + grace
    while True:
        try:
            ended, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # nothing of the run is left
        if ended:
            continue
        if kill_at is not None and time.monotonic() >= kill_at:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            kill_at = None
        time.sleep(0.005)


def supervise() -> int | None:
    """Fork the run: ``None`` in the child that is to do it, and in the
    supervisor, once nothing of the run is left, the run's exit code."""
    adopt_orphans()
    sys.stdout.flush()
    sys.stderr.flush()
    run = os.fork()
    if run == 0:
        os.setpgid(0, 0)
        return None
    try:
        os.setpgid(run, run)  # whichever side gets here first
    except OSError:
        pass

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        while True:
            ended, status = os.waitpid(-1, 0)  # reaps adopted orphans on the way
            if ended == run:
                break
    except BaseException:  # interrupted: the run is over
        try:
            os.killpg(run, signal.SIGTERM)
        except ProcessLookupError:
            pass
        end_group(run, INTERRUPTED_GRACE_S)
        raise
    end_group(run, GRACE_S)
    return os.waitstatus_to_exitcode(status)
