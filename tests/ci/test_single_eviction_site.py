"""No bounded map under ``src/`` evicts by itself.

``repro.fifo_map.FifoMap`` is the one home of the FIFO bound.  The spelling
it replaced at seven sites — ``next(iter(d))`` to name the oldest key of a
dict — walks every tombstone the earlier evictions left, so a copy of it is
a cost that no equivalence test sees (``tests/test_fifo_map_costs.py`` pins
three places where it used to show).  This scan keeps the policy in one
place, the way ``tests/workloads/test_draws_are_rng_choice.py`` keeps the
draws in one helper.
"""

from __future__ import annotations

from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"
HOME = SOURCE_ROOT / "fifo_map.py"


def test_no_first_key_eviction_outside_the_fifo_map():
    sources = sorted(SOURCE_ROOT.rglob("*.py"))
    assert HOME in sources and len(sources) > 100
    offenders = [
        f"{path.relative_to(SOURCE_ROOT)}:{number}: {line.strip()}"
        for path in sources
        if path != HOME
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "next(iter(" in line
    ]
    assert not offenders, (
        "a dict's first key is being taken by iteration — use FifoMap.insert "
        "for a bounded map:\n" + "\n".join(offenders)
    )
