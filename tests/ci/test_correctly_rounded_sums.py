"""No builtin ``sum`` of floats on the way to D-Choices' ``d``.

FINDOPTIMALCHOICES compares head masses against bounds that uniform heads
meet with equality at ``epsilon = 0``, so the last bit of a sum decides
``d``.  Builtin ``sum`` of floats is not the same function on every
interpreter (3.12 made it compensated), so a head that gave W-Choices on
3.11 gave ``d = 7`` on 3.12.  Every head sum on the path is ``math.fsum``,
correctly rounded and therefore interpreter-independent; this scan keeps
builtin ``sum`` out of the solver and out of the callers' ``tail_mass``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The callers that turn a sketch's head counts into the solver's tail mass.
TAIL_MASS_CALLERS = ("partitioning/d_choices.py", "adaptive/tuner.py")


def _sum_calls(tree: ast.AST) -> list[str]:
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]


def _tail_mass_assignments(tree: ast.AST) -> list[ast.Assign]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "tail_mass"
            for target in node.targets
        )
    ]


def test_the_solver_calls_no_builtin_sum():
    tree = ast.parse((SRC / "analysis" / "choices.py").read_text())
    assert _sum_calls(tree) == []


def test_tail_masses_are_correctly_rounded():
    for relative in TAIL_MASS_CALLERS:
        tree = ast.parse((SRC / relative).read_text())
        assignments = _tail_mass_assignments(tree)
        assert assignments, f"{relative}: no tail_mass assignment left to check"
        for assignment in assignments:
            assert _sum_calls(assignment) == [], relative
            assert "math.fsum(" in ast.unparse(assignment), relative


def test_the_scan_sees_a_builtin_sum():
    tree = ast.parse("tail_mass = max(0.0, 1.0 - sum(head))")
    (assignment,) = _tail_mass_assignments(tree)
    assert _sum_calls(assignment) == ["1: sum(head)"]
