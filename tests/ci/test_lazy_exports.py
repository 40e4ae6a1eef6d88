"""Package re-exports are resolved on first access, and the tables are whole.

Every package ``__init__`` declares what it re-exports in one table passed
to ``repro._exports.lazy_exports`` (PEP 562), so importing a package
imports none of its modules.  A fresh interpreter then compiles only what
its run reaches: the benchmark's imports stop loading the discrete-event
cluster model, the dataflow substrate, the scenario catalog and the
experiment suite.  These tests hold the two halves of that bargain:

* the guard — a child that imports what ``bench/jobs.py`` imports loads
  none of the packages the simulation and runtime path does not use;
* completeness — every ``__all__`` name resolves, every table entry names
  a real attribute of its module, unknown names raise ``AttributeError``,
  and the public spellings (``from repro import *``, ``repro.cluster``
  after ``import repro``, the quickstart doctest) keep working.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

#: What ``bench/jobs.py`` imports, statement for statement.
BENCH_IMPORTS = """\
from repro.execution import ExecutionMode
from repro.runtime import ClusterConfig, run_cluster, validate_against_simulation
from repro.simulation import run_simulation
from repro.workloads.synthetic import WikipediaLikeWorkload
from repro.workloads.zipf_stream import ZipfWorkload
"""

#: Modules the simulation and runtime path never needs.
NOT_ON_THE_BENCH_PATH = (
    "repro.cluster",
    "repro.dataflow",
    "repro.operators",
    "repro.scenarios",
    "repro.experiments",
    "repro.suite",
    "repro.reporting",
    "repro.adaptive",
    "repro.analysis.memory",
    "repro.analysis.queueing",
)


def _tables() -> dict[str, dict[str, tuple[str, ...]]]:
    """``package -> {module: names}``, read from each ``__init__``'s call."""
    tables = {}
    for init in sorted(SRC.rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC.parent).parts)
        for node in ast.walk(ast.parse(init.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"
            ):
                tables[package] = ast.literal_eval(node.args[1])
    return tables


TABLES = _tables()


def _modules_after(code: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = code + (
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def test_every_package_that_re_exports_has_a_table():
    packages = {
        ".".join(init.parent.relative_to(SRC.parent).parts)
        for init in SRC.rglob("__init__.py")
    }
    assert set(TABLES) == packages


def test_the_bench_imports_load_only_the_simulation_and_runtime_path():
    loaded = _modules_after(BENCH_IMPORTS)
    stray = [
        module
        for module in loaded
        if any(module == name or module.startswith(name + ".") for name in NOT_ON_THE_BENCH_PATH)
    ]
    assert stray == []
    assert "repro.runtime.worker" in loaded  # the fork rule: loaded before the fork
    assert "repro.simulation.engine" in loaded


def test_import_repro_imports_no_subpackage():
    assert _modules_after("import repro\n") == ["repro", "repro._exports", "repro._version"]


def test_subpackages_resolve_as_attributes():
    loaded = _modules_after(
        "import repro\n"
        "assert repro.cluster.ClusterTopology is repro.ClusterTopology\n"
        "assert repro.analysis.memory.memory_model_for_zipf is repro.memory_model_for_zipf\n"
    )
    assert "repro.cluster.topology" in loaded


@pytest.mark.parametrize("package", sorted(TABLES))
def test_every_all_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in vars(module), f"{package}.{name} is not stored on first read"


@pytest.mark.parametrize("package", sorted(TABLES))
def test_every_table_entry_is_an_attribute_of_its_module(package):
    module = importlib.import_module(package)
    names = [name for names in TABLES[package].values() for name in names]
    assert len(names) == len(set(names)), "a name is exported twice"
    assert set(names) <= set(module.__all__)
    for source, exported in TABLES[package].items():
        owner = importlib.import_module(source, package)
        for name in exported:
            assert name in vars(owner), f"{owner.__name__} has no {name}"
            assert getattr(module, name) is vars(owner)[name]


@pytest.mark.parametrize("package", sorted(TABLES))
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "__no_such_dunder__")


def test_star_import_binds_all_of_repro():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["ZipfWorkload"] is repro.workloads.ZipfWorkload
    assert namespace["ClusterResult"] is repro.cluster.ClusterResult


def test_quickstart_doctest_passes():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
