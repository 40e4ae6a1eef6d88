"""No builtin ``sum`` of floats on the way to D-Choices' ``d`` or to ``I(m)``.

FINDOPTIMALCHOICES compares head masses against bounds that uniform heads
meet with equality at ``epsilon = 0``, so the last bit of a sum decides
``d``.  Builtin ``sum`` of floats is not the same function on every
interpreter (3.12 made it compensated), so a head that gave W-Choices on
3.11 gave ``d = 7`` on 3.12.  Every head sum on the path is ``math.fsum``,
correctly rounded and therefore interpreter-independent; this scan keeps
builtin ``sum`` out of the solver and out of the callers' ``tail_mass``.

The reported imbalance had the same defect: five copies summed normalised
loads as floats.  Each site now hands its integer load vector to
``repro.types.loads_imbalance``, which sums integers and divides once; the
scan keeps division out of the sites and a second division out of the
function, and holds the series average to ``math.fsum``.
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


#: module -> the functions that report the paper's imbalance.
IMBALANCE_SITES = {
    "types.py": ("LoadSnapshot.imbalance",),
    "simulation/metrics.py": ("LoadTracker.imbalance", "WindowedImbalanceSeries.maybe_record"),
    "runtime/state.py": ("ClusterSnapshot.imbalance",),
    "dataflow/runtime.py": ("VertexMetrics.imbalance",),
}


def _function(relative: str, qualname: str) -> ast.FunctionDef:
    """The definition of ``Class.method`` (or a module function) in a module."""
    scope: ast.AST = ast.parse((SRC / relative).read_text())
    for name in qualname.split("."):
        (scope,) = [
            node
            for node in scope.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
    return scope


def _divisions(tree: ast.AST) -> list[str]:
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
    ]


def _calls(tree: ast.AST, name: str) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
        for node in ast.walk(tree)
    )


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


def test_every_imbalance_site_delegates_to_the_one_function():
    for relative, qualnames in IMBALANCE_SITES.items():
        for qualname in qualnames:
            site = _function(relative, qualname)
            assert _calls(site, "loads_imbalance") == 1, f"{relative}: {qualname}"
            assert _divisions(site) == [], f"{relative}: {qualname}"


def test_loads_imbalance_sums_integers_and_divides_once():
    function = _function("types.py", "loads_imbalance")
    sums = [call.partition(": ")[2] for call in _sum_calls(function)]
    assert sums == ["sum(loads)"]
    assert len(_divisions(function)) == 1


def test_the_series_average_is_correctly_rounded():
    average = _function("simulation/metrics.py", "ImbalanceTimeSeries.average")
    assert _sum_calls(average) == []
    assert "math.fsum(self.values)" in ast.unparse(average)


def test_the_scan_sees_a_float_imbalance():
    copy = ast.parse(
        "def imbalance(self):\n"
        "    normalized = [load / self.messages for load in self.instance_loads]\n"
        "    return max(0.0, max(normalized) - sum(normalized) / self.parallelism)\n"
    )
    assert len(_divisions(copy)) == 2
    assert _calls(copy, "loads_imbalance") == 0


def test_the_scan_sees_a_builtin_sum():
    tree = ast.parse("tail_mass = max(0.0, 1.0 - sum(head))")
    (assignment,) = _tail_mass_assignments(tree)
    assert _sum_calls(assignment) == ["1: sum(head)"]
