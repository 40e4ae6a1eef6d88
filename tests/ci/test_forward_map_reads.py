"""The forward map is read only through its accessor.

``KeyDictionary`` keeps ``key -> id`` as an index over its key column that
is caught up on first read: an unnamed array chunk appends ids, keys and
folds and enters nothing, and ``KeyDictionary.forward_map`` enters the
missing keys before handing the map out.  Any other read of the raw
attribute (``_key_index``) may see an index that has not caught up yet and
answer "never interned" for a key that was — issuing it a second id.  This
scan keeps every such read under ``src/repro/`` inside the accessor; the
constructor is the one place that may assign it.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

RAW = "_key_index"
ACCESSOR = "KeyDictionary.forward_map"
INITIALISER = "KeyDictionary.__init__"


def _raw_uses(source: str) -> list[tuple[int, str, bool]]:
    """``(line, enclosing scope, is_read)`` of every ``._key_index`` in ``source``."""
    uses: list[tuple[int, str, bool]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{scope}.<lambda>" if scope else "<lambda>")
                continue
            if isinstance(child, ast.Attribute) and child.attr == RAW:
                uses.append((child.lineno, scope, isinstance(child.ctx, ast.Load)))
            visit(child, scope)

    visit(ast.parse(source), "")
    return uses


def _stray(source: str) -> list[str]:
    """Uses of the raw map outside the accessor (reads) and constructor (writes)."""
    return [
        f"{line}: {scope or '<module>'}"
        for line, scope, is_read in _raw_uses(source)
        if scope != (ACCESSOR if is_read else INITIALISER)
    ]


def test_the_raw_map_is_read_only_by_its_accessor():
    offenders = [
        f"{path.relative_to(REPRO)}:{offender}"
        for path in sorted(REPRO.rglob("*.py"))
        for offender in _stray(path.read_text())
    ]
    assert not offenders, (
        "read the forward map through KeyDictionary.forward_map(); the raw "
        "index may not have caught up with the key column:\n" + "\n".join(offenders)
    )


def test_the_accessor_is_where_the_scan_looks():
    uses = _raw_uses((REPRO / "workloads" / "columnar.py").read_text())
    assert any(scope == ACCESSOR and is_read for _, scope, is_read in uses)
    assert any(scope == INITIALISER and not is_read for _, scope, is_read in uses)


def test_the_scan_flags_a_direct_read():
    stale = (
        "class KeyDictionary:\n"
        "    def lookup(self, key):\n"
        "        return self._key_index.get(key)\n"
        "    def intern_mapped_array(self, values, key_fn):\n"
        "        get = (lambda d: d._key_index.get)(self)\n"
        "        self._key_index = {}\n"
        "def decode(dictionary):\n"
        "    return list(dictionary._key_index)\n"
    )
    assert _stray(stale) == [
        "3: KeyDictionary.lookup",
        "5: KeyDictionary.intern_mapped_array.<lambda>",
        "6: KeyDictionary.intern_mapped_array",
        "8: decode",
    ]
