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
    """Every name, attribute, parameter and keyword ``source`` spells."""
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
    return names


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


def test_no_experiment_config_has_a_batch_size_field():
    offenders = []
    for experiment_id in list_experiments():
        config_class = get_experiment(experiment_id).descriptor.config_class
        if "batch_size" in {field.name for field in dataclasses.fields(config_class)}:
            offenders.append(experiment_id)
    assert not offenders, f"configs choose their execution with `mode` only: {offenders}"


def test_no_experiment_entry_point_takes_a_batch_size():
    entry_points = {
        "ExperimentDescriptor.configure": ExperimentDescriptor.configure,
        "ExperimentDescriptor.run_at": ExperimentDescriptor.run_at,
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
