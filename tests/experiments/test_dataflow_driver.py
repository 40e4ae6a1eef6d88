"""Behavioural tests for the multi-stage topology driver (fig17)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import fig17_topology_throughput as fig17
from repro.experiments.registry import run_experiment
from repro.operators.reconciliation import merge_partial_states


@pytest.fixture(scope="module")
def tiny_config():
    return fig17.Fig17Config.tiny()


@pytest.fixture(scope="module")
def fig17_result(tiny_config):
    return fig17.run(tiny_config)


class TestFig17:
    def test_rows_cover_every_scheme(self, fig17_result):
        schemes = [row["scheme"] for row in fig17_result.rows]
        assert schemes == list(fig17.SCHEMES)

    def test_throughput_positive(self, fig17_result):
        assert all(row["throughput_per_s"] > 0 for row in fig17_result.rows)

    def test_kg_replication_is_one_and_pkg_at_most_two(self, fig17_result):
        by_scheme = {row["scheme"]: row for row in fig17_result.rows}
        assert by_scheme["KG"]["max_replication"] == 1
        assert by_scheme["PKG"]["max_replication"] <= 2

    def test_head_schemes_balance_better_than_kg(self, fig17_result):
        by_scheme = {row["scheme"]: row for row in fig17_result.rows}
        for scheme in ("D-C", "W-C"):
            assert (
                by_scheme[scheme]["aggregate_imbalance"]
                < by_scheme["KG"]["aggregate_imbalance"]
            )

    def test_reconciled_entries_identical_across_schemes(self, fig17_result):
        # Every scheme reconciles to the same (window, word) key set —
        # the balance changes, the answer does not.
        entries = {row["reconciled_entries"] for row in fig17_result.rows}
        assert len(entries) == 1

    def test_reconciled_totals_match_closed_windows(self, tiny_config):
        # Cross-check the two-level aggregation end to end: the sink's
        # (window, word) totals must equal the aggregator's closed-window
        # emissions exactly, independent of the grouping scheme.
        result_dc, _ = fig17.run_scheme(tiny_config, "D-C")
        result_kg, _ = fig17.run_scheme(tiny_config, "KG")

        def totals(topology_result):
            partials = [
                sink.partial_state()
                for sink in topology_result.instances["reconcile"]
            ]
            return merge_partial_states(partials, lambda a, b: a + b)

        assert totals(result_dc) == totals(result_kg)

    def test_parameters_record_the_mode_that_ran(self, tiny_config, fig17_result):
        assert fig17_result.parameters["mode"] == "columnar:1024"
        scalar = fig17.run(replace(tiny_config, mode="scalar", schemes=("KG",)))
        assert scalar.parameters["mode"] == "scalar"
        assert "batch_size" not in scalar.parameters

    def test_rows_dump_as_json_without_a_default(self):
        # The routing kernels answer in int64 arrays; what ``run fig17``
        # tabulates must still be Python numbers.  (The exporters stringify
        # anything else, so they would hide a leaked numpy scalar.)
        rows = run_experiment("fig17", scale="tiny").rows
        assert rows and json.dumps(rows)

    def test_mode_does_not_change_metrics(self, tiny_config):
        scalar, _ = fig17.run_scheme(replace(tiny_config, mode="scalar"), "W-C")
        batched, _ = fig17.run_scheme(
            replace(tiny_config, mode="columnar:512"), "W-C"
        )
        for vertex in fig17.VERTICES:
            assert (
                batched.vertex_metrics(vertex).instance_loads
                == scalar.vertex_metrics(vertex).instance_loads
            )


def test_batched_stage_by_stage_multiplies_scalar_throughput():
    """fig17's claim (ii): ``columnar:1024`` runs W-C's topology >= 2.71x scalar.

    The floor is 0.7 x the 3.87x that ``BENCH_routing.json`` @ 535e8aa
    recorded for W-C at 10,000 posts (30,000 words).  Both modes run in this
    process, interleaved, and each keeps its best of seven.  The ratio
    follows the machine's load: on a 2-core container shared with other
    tenants, 32 runs read 2.43-3.40x and 3 fell below the floor; in the one
    of those whose times were kept, the scalar runs took 330-410 ms against
    ~270 ms in quiet phases.  Best of three, the old nightly's setting, fell
    below the floor in 2 of 8 runs under load, so fewer rounds would only
    make the pin flakier.
    """
    config = fig17.Fig17Config(num_posts=10_000)
    posts = fig17.make_posts(config)
    modes = {
        "scalar": replace(config, mode="scalar"),
        "columnar": replace(config, mode="columnar:1024"),
    }
    best = dict.fromkeys(modes, float("inf"))
    for _ in range(7):
        for name, mode_config in modes.items():
            _, elapsed = fig17.run_scheme(mode_config, "W-C", posts=posts)
            best[name] = min(best[name], elapsed)
    speedup = best["scalar"] / best["columnar"]
    assert speedup >= 2.71, f"columnar:1024 / scalar = {speedup:.2f}x"
