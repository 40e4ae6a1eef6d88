"""The routing layer hands its decisions on as arrays, end to end.

The id kernel (``Partitioner._route_ids``) returns an ``int64`` worker
column and a ``bool`` head mask, ``SenderGroup.route_span`` scatters the
senders' columns in numpy, and its consumers take them as they are.  A list
round trip between kernel and consumer — the kernel filling a caller's flag
list, the engine re-packing workers with ``np.fromiter`` or flags with
``bytes(flags)``, the runtime's source re-wrapping the span with
``np.asarray`` — is a cost that no equivalence test sees: every decision
stays identical, only the throughput drops.  This scan keeps those
conversions from coming back.
"""

from __future__ import annotations

import re
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: file -> spellings of a list round trip it must not contain.
FORBIDDEN = {
    "simulation/engine.py": ("np.fromiter(", "bytes(flags"),
    "runtime/source.py": ("np.asarray(group.route_span",),
}


def test_consumers_take_the_columns_as_they_are():
    offenders = [
        f"{name}:{number}: {line.strip()}"
        for name, spellings in FORBIDDEN.items()
        for number, line in enumerate(
            (SOURCE_ROOT / name).read_text().splitlines(), start=1
        )
        if any(spelling in line for spelling in spellings)
    ]
    assert not offenders, (
        "a routed span is converted back from lists — take route_span's "
        "(workers, heads) arrays directly:\n" + "\n".join(offenders)
    )


def test_no_id_kernel_takes_a_flag_list():
    sources = sorted(SOURCE_ROOT.rglob("*.py"))
    assert len(sources) > 100
    kernels = [
        (path, match.group(1))
        for path in sources
        for match in re.finditer(r"def _route_ids\(([^)]*)\)", path.read_text())
    ]
    assert len(kernels) >= 9, "the scan no longer finds the id kernels"
    offenders = [
        f"{path.relative_to(SOURCE_ROOT)}: _route_ids({params.strip()})"
        for path, params in kernels
        if "head_flags" in params
    ]
    assert not offenders, (
        "an id kernel still takes a head-flag list — return (workers, heads) "
        "instead:\n" + "\n".join(offenders)
    )
