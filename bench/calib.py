"""The frozen calibration kernel every timed trial is bracketed by.

The sandbox this benchmark runs on changes speed by up to 3x for tens of
seconds at a time, so a raw wall-clock rate compares machine phases, not
commits.  A trial is therefore reported relative to this kernel, timed
immediately before and after it: ``rate = messages / seconds * (c / NOMINAL_S)``
where ``c`` is the mean of the two kernel timings.

The kernel is a pure-Python loop of dict bumps and list appends — the same
kind of work the routing hot loops do — over a fixed sequence.  It imports
nothing from ``repro`` (pinned by ``bench/tests``), so no change under
``src/`` can move it, and it must never be edited: every committed number
is in its units.
"""

from __future__ import annotations

import time

#: ``C0``: the kernel's wall time on the nominal machine (a quiet phase of the
#: 2-core sandbox).  It only sets the scale, so that calibrated numbers read
#: as msg/s and seconds on that machine; ratios between commits never see it.
NOMINAL_S = 0.0045

_SEQUENCE = tuple((i * 2654435761) % 4093 for i in range(60_000))


def kernel() -> float:
    """Wall seconds of one pass of the frozen loop."""
    counts: dict[int, int] = {}
    kept: list[int] = []
    get = counts.get
    append = kept.append
    start = time.perf_counter()
    for value in _SEQUENCE:
        counts[value] = get(value, 0) + 1
        if not value & 7:
            append(value)
    return time.perf_counter() - start


def bracket(work):
    """Run ``work()`` between two kernel passes.

    Returns ``(result, calib_seconds)`` where ``calib_seconds`` is the mean
    of the kernel's wall time immediately before and after the call.
    """
    before = kernel()
    result = work()
    after = kernel()
    return result, (before + after) / 2


def speed(calib_seconds: float) -> float:
    """How slow the machine ran relative to nominal (>1 means slower).

    Multiply a rate by it, or divide a duration by it, to express the
    measurement in nominal-machine units.
    """
    return calib_seconds / NOMINAL_S
