"""Guard keeping docs/performance.md from growing back into a notebook.

The page is to become four parts — the current layer table, the rule of the
round, the scaling table and the register of what was measured and not
taken — and until that rewrite lands every change that appended its own
``## … (PR n)`` section added 40-130 lines.  This holds the page where it
stands: no per-change heading beyond the eleven it already has, and a line
budget.  A rewrite that folds those sections away lowers both numbers here.
"""

from __future__ import annotations

import re
from pathlib import Path

PAGE = Path(__file__).resolve().parents[2] / "docs" / "performance.md"

#: The ``## … (PR n)`` sections the page has; a new measurement goes into
#: the layer table or the register instead.
MAX_CHANGE_HEADINGS = 11
#: Lines the page may hold: what it held once the retired benchmark
#: scripts' sections went.
LINE_BUDGET = 1_736

CHANGE_HEADING = re.compile(r"^## .*\(PR \d+\)\s*$")


def _lines() -> list[str]:
    return PAGE.read_text(encoding="utf-8").splitlines()


def test_no_new_per_change_section():
    headings = [line for line in _lines() if CHANGE_HEADING.match(line)]
    assert len(headings) <= MAX_CHANGE_HEADINGS, (
        "record a measurement in the layer table or the register, not in a "
        "section of its own:\n" + "\n".join(headings)
    )


def test_page_stays_within_its_line_budget():
    lines = len(_lines())
    assert lines <= LINE_BUDGET, (
        f"docs/performance.md has {lines} lines, over its budget of "
        f"{LINE_BUDGET}: cut what a later reader does not need (git keeps it)"
    )
