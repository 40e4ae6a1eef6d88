"""Paths and knobs that no entry point ran stay deleted.

An execution audit (``benchmarks/reachability.py``: every CLI subcommand,
every example and the repo benchmark, each profiled in its own process)
found three things nothing ran or set, and they were deleted:

* the dataflow runtime's order-keyed stage loop for DAGs with fan-in —
  no example, figure or benchmark builds fan-in, and the scalar loop it
  was pinned against now runs such a DAG under every mode;
* the discrete-event cluster simulator's rescale replay — the paper's
  Q4 cluster never adds or removes a worker, and only its own tests set
  ``ClusterTopology.rescale_plan``;
* the experiments' ``batch_size`` knob, a second spelling of ``mode``
  that no caller passed.

A second audit took the units only their own tests called:

* the sum / average / min-max / top-k aggregators (every figure, example
  and benchmark counts), ``SpaceSaving.merge`` (the top-k aggregator's
  partial-state merge) and ``SpaceSaving.add_and_classify_batch`` (a
  wrapper of ``add_and_classify_runs`` + ``runs_to_flags``);
* sliding windows and the window-assigner ABC (every window tumbles);
* ``repro.hashing.universal`` (every hash family is SplitMix64), the
  family's ``hash`` / ``distinct_candidates`` / ``with_buckets`` /
  ``with_functions`` / ``spread`` and the module helpers
  ``collision_probability``, ``candidate_union`` and ``expected_distinct``
  (a copy of ``analysis.choices.expected_worker_set_size``).

A third cut took a helper the code it served no longer calls:

* ``Partitioner._min_load_level``, which seeded W-Choices' running-argmin
  queue; "all" placement now scans the load vector with ``min`` /
  ``count`` / ``list.index``.

A fourth cut left each scheme one scalar selection, ``_select_worker``
(and ``_select_head_worker`` on the head/tail schemes):

* ``_select`` / ``_select_head`` / ``_select_tail``, a second scalar form
  that only a docstring held to the first and that built a decision
  object whose key and candidates nothing read; ``route_with_decision``
  is now ``route`` plus the head bit;
* ``Partitioner._least_loaded_overall``, called only by two ``_select_head``
  methods.

A fifth change moved the hash stores onto the key dictionary, so the
senders of a group hash each key once:

* ``HashFamily._id_tables`` and its bound ``_MAX_ID_TABLES``, a candidate
  table per family; the table is now the dictionary's, per hash identity;
* ``HeadTailPartitioner._head_hashes``, the head keys' raw hash tuples per
  partitioner; they sit beside that table.

Each would come back the way it left: as a path every test of its own
exercises and no user run reaches.  These scans keep them out.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.experiments import fig17_topology_throughput
from repro.experiments.descriptor import ExperimentDescriptor
from repro.experiments.registry import get_experiment, list_experiments
from repro.suite.orchestrator import run_suite

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

ORDER_KEYED_METHODS = {
    "_execute_ordered",
    "_route_incoming",
    "_process_stage",
    "_emit_downstream",
}
RESCALE_NAMES = {"rescale_plan", "migration_window", "retired_at"}
#: Deleted names no module under ``src/repro/`` may spell again.
UNRUN_NAMES = {
    "SumAggregator",
    "AverageAggregator",
    "MinMaxAggregator",
    "TopKAggregator",
    "merged_top",
    "SlidingWindowAssigner",
    "WindowAssigner",
    "MultiplyShiftHash",
    "TabulationHash",
    "distinct_candidates",
    "with_buckets",
    "with_functions",
    "collision_probability",
    "candidate_union",
    "expected_distinct",
    "add_and_classify_batch",
    "_min_load_level",
    "_select",
    "_select_head",
    "_select_tail",
    "_least_loaded_overall",
    "_id_tables",
    "_MAX_ID_TABLES",
    "_head_hashes",
}
#: Deleted methods whose names other code still uses for something else
#: (``hash`` the builtin, ``merge`` a reconciliation, ``spread`` a local).
UNRUN_METHODS = {
    ("hashing/hash_family.py", "HashFamily"): {"hash", "spread"},
    ("sketches/space_saving.py", "SpaceSaving"): {"merge"},
}
UNIVERSAL = "repro.hashing.universal"


def _order_keyed_loop(source: str) -> list[str]:
    """Order-keyed stage methods and ``heapq`` imports in ``source``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in ORDER_KEYED_METHODS:
            offenders.append(f"{node.lineno}: def {node.name}")
        elif isinstance(node, ast.Import) and any(
            alias.name == "heapq" for alias in node.names
        ):
            offenders.append(f"{node.lineno}: import heapq")
        elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
            offenders.append(f"{node.lineno}: from heapq import ...")
    return offenders


def _identifiers(source: str) -> set[str]:
    """Every name, attribute, parameter, keyword and import ``source`` spells."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _methods(source: str, class_name: str) -> set[str]:
    """Names of the functions defined directly in ``class_name``."""
    return {
        node.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef) and cls.name == class_name
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _imports_of(source: str, module: str) -> list[str]:
    """Imports of ``module`` (or a name from it) in ``source``."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            imported.append(node.module)
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    return [name for name in imported if name == module]


def test_the_dataflow_runtime_has_no_order_keyed_loop():
    offenders = _order_keyed_loop((REPRO / "dataflow" / "runtime.py").read_text())
    assert not offenders, (
        "fan-in runs the depth-first scalar loop; a second stage loop for it "
        "is a path no entry point runs:\n" + "\n".join(offenders)
    )


def test_the_cluster_simulator_replays_no_rescale():
    sources = sorted((REPRO / "cluster").glob("*.py"))
    assert REPRO / "cluster" / "engine.py" in sources
    offenders = [
        f"{path.name}: {name}"
        for path in sources
        for name in sorted(_identifiers(path.read_text()) & RESCALE_NAMES)
    ]
    assert not offenders, (
        "the discrete-event cluster runs a fixed worker set (the paper's "
        "Q4); rescaling belongs to the simulation engine:\n" + "\n".join(offenders)
    )


def test_no_module_spells_a_deleted_unit():
    offenders = [
        f"{path.relative_to(REPRO)}: {name}"
        for path in sorted(REPRO.rglob("*.py"))
        for name in sorted(_identifiers(path.read_text()) & UNRUN_NAMES)
    ]
    for (relative, class_name), names in UNRUN_METHODS.items():
        defined = _methods((REPRO / relative).read_text(), class_name)
        assert defined, f"{relative}: no class {class_name} left to check"
        offenders += [f"{relative}: {class_name}.{name}" for name in sorted(defined & names)]
    assert not offenders, (
        "only their own tests ran these; a figure, example or benchmark "
        "that needs one brings it back with its caller:\n" + "\n".join(offenders)
    )


def test_no_universal_hashing_module():
    assert not (REPRO / "hashing" / "universal.py").exists()
    offenders = [
        f"{path.relative_to(REPRO)}: {name}"
        for path in sorted(REPRO.rglob("*.py"))
        for name in _imports_of(path.read_text(), UNIVERSAL)
    ]
    assert not offenders, "every hash family is SplitMix64:\n" + "\n".join(offenders)


def test_no_experiment_config_has_a_batch_size_field():
    offenders = []
    for experiment_id in list_experiments():
        config_class = get_experiment(experiment_id).config_class
        if "batch_size" in {field.name for field in dataclasses.fields(config_class)}:
            offenders.append(experiment_id)
    assert not offenders, f"configs choose their execution with `mode` only: {offenders}"


def test_no_experiment_entry_point_takes_a_batch_size():
    entry_points = {
        "ExperimentDescriptor.configure": ExperimentDescriptor.configure,
        "run_suite": run_suite,
        "fig17.run_scheme": fig17_topology_throughput.run_scheme,
    }
    offenders = [
        name
        for name, function in entry_points.items()
        if "batch_size" in inspect.signature(function).parameters
    ]
    assert not offenders, f"pass `mode=` (or set the config's mode): {offenders}"


def test_the_scans_flag_the_removed_code():
    removed_runtime = (
        "from heapq import merge as _heap_merge\n"
        "class TopologyRuntime:\n"
        "    def _execute_ordered(self, batch, messages, base): ...\n"
        "    def _route_incoming(self, vertex, pending): ...\n"
        "    def _emit_downstream(self, vertex, arrivals, outputs, pending): ...\n"
        "    def _execute_merge_free(self, batch, messages, base): ...\n"
    )
    assert len(_order_keyed_loop(removed_runtime)) == 4
    removed_cluster = (
        "plan = topology.rescale_plan\n"
        "queue.retired_at = max(now, queue.busy_until)\n"
        "as_plan(plan, migration_window=self.migration_window)\n"
    )
    assert _identifiers(removed_cluster) >= RESCALE_NAMES
    removed_operators = (
        "from repro.operators.windows import SlidingWindowAssigner\n"
        "class TopKAggregator(StatefulOperator):\n"
        "    def merged_top(self, others): ...\n"
        "sketch.add_and_classify_batch(keys, threshold)\n"
        "expected_distinct(n, d)\n"
        "level, queue = self._min_load_level()\n"
        "class HeadTailPartitioner(Partitioner):\n"
        "    def _select(self, key): return self._select_tail(key)\n"
        "    def _select_head(self, key): return self._least_loaded_overall()\n"
        "    def _select_worker(self, key): return self._select_head_worker(0)\n"
    )
    assert len(_identifiers(removed_operators) & UNRUN_NAMES) == 10
    removed_methods = (
        "class HashFamily:\n"
        "    def hash(self, key, index): ...\n"
        "    def spread(self, keys, d=1): ...\n"
    )
    assert _methods(removed_methods, "HashFamily") == {"hash", "spread"}
    assert _imports_of("from repro.hashing.universal import TabulationHash\n", UNIVERSAL)
    assert _imports_of("from repro.hashing import universal\n", UNIVERSAL)
    assert _imports_of("import repro.hashing.universal\n", UNIVERSAL)
