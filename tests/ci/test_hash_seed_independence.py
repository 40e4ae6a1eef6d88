"""Same seed, same bytes, in any process.

Builtin ``hash()`` of text is salted per interpreter (``PYTHONHASHSEED``),
so any route that reaches it makes an output a function of the process
rather than of the config.  Consistent grouping did: it placed its virtual
nodes by hashing ``("vnode", worker, replica)`` tuples, and the key fold
sent every key that was not an int, str or bytes to ``hash()``.  The fold
now gives each key type it accepts a fold of its own and raises
``TypeError`` for the rest, and virtual nodes are placed from integers.

Three guards keep it that way: an AST scan keeps builtin ``hash(`` out of
``src/repro/``; the routing digest and fig18 (whose rows include CH) print
the same bytes under two different hash salts; and the folds are pinned
as constants, with tuple folds compared across two more salts.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hashing.hash_family import _key_to_int
from repro.partitioning import ConsistentGrouping

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: Two salts for the two children of each command; any two differ.
SALTS = ("1", "2")

COMMANDS = {
    "stream_digest": [str(REPO_ROOT / "benchmarks" / "stream_digest.py"), "--messages", "20000"],
    "fig18": ["-m", "repro.cli", "run", "fig18", "--scale", "tiny"],
}


def _env(salt: str) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": path}


def test_no_builtin_hash_under_src():
    calls = [
        f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    ]
    assert calls == []


def test_outputs_are_the_same_bytes_under_two_hash_salts():
    children = {
        (name, salt): subprocess.Popen(
            [sys.executable, *argv],
            env=_env(salt),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for name, argv in COMMANDS.items()
        for salt in SALTS
    }
    printed = {}
    for key, child in children.items():
        out, err = child.communicate(timeout=600)
        assert child.returncode == 0, err.decode()
        printed[key] = out
    for name in COMMANDS:
        first, second = (printed[name, salt] for salt in SALTS)
        assert first, name
        assert first == second, name
    assert b"CH " in printed["fig18", SALTS[0]]


#: Keys of every type the fold accepts, with what each folds to.
FOLDS = {
    "None": 0x6E6F6E65C0FFEE00,
    "True": 0x5BF03636,
    "-3": 2**64 - 3,
    "2.0": 2,
    "-0.0": 0,
    "0.5": 0x3FE0000000000000 ^ 0x666C6F6174B17500,
    "float('inf')": 0x7FF0000000000000 ^ 0x666C6F6174B17500,
}


def test_folds_are_constants_of_the_key():
    assert {text: _key_to_int(eval(text)) for text in FOLDS} == FOLDS
    tuples = ["('vnode', 3, 7)", "(1, ('a', b'b'), None, 2.5)", "()"]
    script = "from repro.hashing.hash_family import _key_to_int\n" + "".join(
        f"print(_key_to_int({text}))\n" for text in tuples
    )
    folds = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=_env(salt),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for salt in ("0", "3")
    ]
    assert folds[0] == folds[1]
    assert folds[0].split() == [str(_key_to_int(eval(text))) for text in tuples]


def test_keys_equal_as_tuples_fold_alike():
    assert _key_to_int((True, 1.0)) == _key_to_int((1, 1))
    assert _key_to_int((1, "a")) != _key_to_int(("a", 1))
    assert _key_to_int(()) != _key_to_int(0)
    assert _key_to_int(("ab",)) != _key_to_int("ab")
    assert _key_to_int(True) != _key_to_int(1)


@pytest.mark.parametrize("key", [object(), frozenset({1}), [1], {"a": 1}, 1 + 2j, (1, object())])
def test_other_key_types_are_refused(key):
    with pytest.raises(TypeError, match="cannot fold"):
        _key_to_int(key)


def test_consistent_grouping_routes_alike_under_every_salt():
    script = (
        "from repro.partitioning import ConsistentGrouping\n"
        "p = ConsistentGrouping(num_workers=10, seed=7)\n"
        "print([p.route(f'k{i}') for i in range(20)])\n"
    )
    routes = {
        subprocess.run(
            [sys.executable, "-c", script],
            env=_env(salt),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for salt in ("0", "1", "2")
    }
    here = ConsistentGrouping(num_workers=10, seed=7)
    assert routes == {f"{[here.route(f'k{i}') for i in range(20)]}\n"}
