"""One heavy-hitter sketch, one head path.

The head/tail partitioners detect the head with SpaceSaving, the sketch the
paper's Algorithm 1 states its head test on, and call it directly.  A
``getattr`` probe on the sketch is how a second code path creeps back: a
fallback for estimators that lack a method, which no routing test on the
default sketch ever runs, and which degrades silently — a join that does
not grow the sketch loses the no-false-negative bound, a reset that skips
it keeps stale counts.  This scan keeps the partitioners on the one path,
and the package export keeps the sketch the only estimator there is.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.sketches

PARTITIONING = Path(__file__).resolve().parents[2] / "src" / "repro" / "partitioning"

SKETCH_METHODS = {
    "add_and_classify_runs",
    "head_counts",
    "head_signature",
    "add_and_estimate",
    "grow",
    "reset",
    "export_state",
}


def _sketch_probes(source: str) -> list[str]:
    """Every ``getattr`` call in ``source`` aimed at the sketch or its methods."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
        ):
            continue
        target, name = node.args[0], node.args[1]
        names_a_method = isinstance(name, ast.Constant) and name.value in SKETCH_METHODS
        if "sketch" in ast.unparse(target) or names_a_method:
            offenders.append(f"{node.lineno}: {ast.unparse(node)}")
    return offenders


def test_partitioners_never_probe_the_sketch():
    sources = sorted(PARTITIONING.glob("*.py"))
    assert PARTITIONING / "head_tail.py" in sources
    offenders = [
        f"{path.name}:{line}"
        for path in sources
        for line in _sketch_probes(path.read_text())
    ]
    assert not offenders, (
        "the head path probes the sketch for an optional method — call "
        "SpaceSaving directly:\n" + "\n".join(offenders)
    )


def test_the_scan_flags_the_removed_fallbacks():
    fallbacks = (
        'bulk = getattr(self._sketch, "add_and_classify_runs", None)\n'
        'reset = getattr(partitioner.sketch, "reset", None)\n'
        'grow = getattr(estimator, "grow", None)\n'
        'name = getattr(self, "name", None)\n'
    )
    assert len(_sketch_probes(fallbacks)) == 3


def test_space_saving_is_the_only_estimator_exported():
    exported = repro.sketches.__all__
    assert "SpaceSaving" in exported
    estimators = [
        name for name in exported if hasattr(getattr(repro.sketches, name), "estimate")
    ]
    assert estimators == ["SpaceSaving"]
