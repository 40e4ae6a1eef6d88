"""Behavioural tests for the experiment drivers (scaled-down runs).

Each driver is run at (or below) its "quick" scale and the rows are checked
against the qualitative claims of the corresponding figure/table in the
paper.  These are the same checks EXPERIMENTS.md reports on.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig01_scale_imbalance,
    fig03_head_cardinality,
    fig04_fraction_workers,
    fig05_memory_vs_pkg,
    fig06_memory_vs_sg,
    fig07_threshold_sweep,
    fig08_head_tail_load,
    fig09_optimal_d,
    fig10_zipf_imbalance,
    fig11_real_imbalance,
    fig12_imbalance_over_time,
    fig13_throughput,
    fig14_latency,
    fig18_adaptive,
    table1_datasets,
)


@pytest.fixture(scope="module")
def fig1_result():
    config = fig01_scale_imbalance.Fig01Config(
        worker_counts=(5, 50),
        num_messages=60_000,
        num_body_keys=10_000,
    )
    return fig01_scale_imbalance.run(config)


class TestFig01:
    def test_rows_cover_all_combinations(self, fig1_result):
        assert len(fig1_result.rows) == 3 * 2

    def test_dchoices_beats_pkg_at_scale(self, fig1_result):
        pkg = fig1_result.filtered(scheme="PKG", workers=50)[0]["imbalance"]
        dchoices = fig1_result.filtered(scheme="D-C", workers=50)[0]["imbalance"]
        wchoices = fig1_result.filtered(scheme="W-C", workers=50)[0]["imbalance"]
        assert dchoices < pkg
        assert wchoices < pkg

    def test_imbalances_are_probabilities(self, fig1_result):
        assert all(0.0 <= row["imbalance"] <= 1.0 for row in fig1_result.rows)


class TestFig03:
    def test_head_small_relative_to_keyspace(self):
        result = fig03_head_cardinality.run(fig03_head_cardinality.Fig03Config.quick())
        assert all(row["head_cardinality"] <= 1000 for row in result.rows)

    def test_lower_threshold_gives_larger_head(self):
        result = fig03_head_cardinality.run(fig03_head_cardinality.Fig03Config.quick())
        for workers in (50, 100):
            for skew in (0.4, 1.2, 2.0):
                tight = result.filtered(workers=workers, skew=skew, theta="2/n")
                loose = result.filtered(workers=workers, skew=skew, theta="1/(5n)")
                assert loose[0]["head_cardinality"] >= tight[0]["head_cardinality"]


class TestFig04:
    def test_d_between_2_and_n(self):
        result = fig04_fraction_workers.run(fig04_fraction_workers.Fig04Config.quick())
        for row in result.rows:
            assert 2 <= row["d"] <= row["workers"]

    def test_fraction_below_one_at_scale(self):
        # the headline claim of Figure 4: at n in {50, 100}, d < n
        result = fig04_fraction_workers.run(fig04_fraction_workers.Fig04Config.quick())
        for row in result.rows:
            if row["workers"] >= 50:
                assert row["d_over_n"] < 1.0

    def test_d_non_decreasing_in_skew(self):
        result = fig04_fraction_workers.run(fig04_fraction_workers.Fig04Config.quick())
        for workers in (50, 100):
            values = [
                row["d"]
                for row in result.rows
                if row["workers"] == workers
            ]
            assert values == sorted(values)


class TestFig05AndFig06:
    def test_memory_overhead_vs_pkg_bounded(self):
        result = fig05_memory_vs_pkg.run(fig05_memory_vs_pkg.Fig05Config.quick())
        for row in result.rows:
            assert row["dchoices_vs_pkg_pct"] >= -1e-9
            assert row["wchoices_vs_pkg_pct"] <= 60.0
            assert row["dchoices_vs_pkg_pct"] <= row["wchoices_vs_pkg_pct"] + 1e-9

    def test_memory_saving_vs_sg_large(self):
        result = fig06_memory_vs_sg.run(fig06_memory_vs_sg.Fig06Config.quick())
        for row in result.rows:
            assert row["dchoices_vs_sg_pct"] < -50.0
            assert row["wchoices_vs_sg_pct"] < -50.0


class TestFig07:
    def test_low_threshold_keeps_wchoices_balanced(self):
        # With a sufficiently low threshold, W-C keeps the imbalance small
        # even at the largest scale and the highest skew of the sweep.
        result = fig07_threshold_sweep.run(fig07_threshold_sweep.Fig07Config.quick())
        rows = result.filtered(scheme="W-C", theta="1/(8n)", workers=50, skew=2.0)
        assert rows and rows[0]["imbalance"] < 0.02


class TestFig08:
    def test_load_fractions_sum_to_hundred(self):
        config = fig08_head_tail_load.Fig08Config(num_messages=40_000)
        result = fig08_head_tail_load.run(config)
        for scheme in ("PKG", "W-C", "RR"):
            rows = result.filtered(scheme=scheme)
            assert sum(row["total_load_pct"] for row in rows) == pytest.approx(100.0)

    def test_wchoices_closer_to_ideal_than_pkg(self):
        config = fig08_head_tail_load.Fig08Config(num_messages=40_000)
        result = fig08_head_tail_load.run(config)
        ideal = 100.0 / config.num_workers
        pkg_max = max(row["total_load_pct"] for row in result.filtered(scheme="PKG"))
        wc_max = max(row["total_load_pct"] for row in result.filtered(scheme="W-C"))
        assert abs(wc_max - ideal) <= abs(pkg_max - ideal)


class TestFig09:
    def test_analytical_d_tracks_empirical_minimum(self):
        # Whenever the empirical search found a feasible d, the analytical
        # value is in the same ballpark (within the probing stride on the
        # low side, and not wildly larger on the high side).
        config = fig09_optimal_d.Fig09Config.quick()
        result = fig09_optimal_d.run(config)
        for row in result.rows:
            assert 2 <= row["analytical_d"] <= row["workers"]
            if row["empirical_min_d"] is not None:
                assert row["analytical_d"] >= row["empirical_min_d"] - config.d_stride
                assert (
                    row["analytical_d"]
                    <= 3 * row["empirical_min_d"] + config.d_stride
                )


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        config = fig10_zipf_imbalance.Fig10Config(
            skews=(2.0,),
            worker_counts=(50,),
            key_counts=(10_000,),
            num_messages=60_000,
        )
        return fig10_zipf_imbalance.run(config)

    def test_all_schemes_present(self, result):
        assert {row["scheme"] for row in result.rows} == {"PKG", "D-C", "W-C", "RR"}

    def test_ordering_at_high_skew_and_scale(self, result):
        values = {row["scheme"]: row["imbalance"] for row in result.rows}
        assert values["W-C"] <= values["PKG"]
        assert values["D-C"] <= values["PKG"]


class TestFig11:
    def test_wchoices_never_worse_than_pkg_at_scale(self):
        config = fig11_real_imbalance.Fig11Config.quick()
        result = fig11_real_imbalance.run(config)
        workers = max(config.worker_counts)
        for dataset in config.datasets:
            values = {
                row["scheme"]: row["imbalance"]
                for row in result.filtered(dataset=dataset, workers=workers)
            }
            assert values["W-C"] <= values["PKG"] + 1e-9


class TestFig12:
    def test_one_ordered_series_per_combination(self):
        # A time series for every (dataset, scheme, workers) combination,
        # its snapshots ordered by message count.
        config = fig12_imbalance_over_time.Fig12Config.quick()
        result = fig12_imbalance_over_time.run(config)
        series: dict[tuple, list[int]] = {}
        for row in result.rows:
            key = (row["dataset"], row["scheme"], row["workers"])
            series.setdefault(key, []).append(row["messages"])
        assert len(series) == len(config.datasets) * 3 * len(config.worker_counts)
        for counts in series.values():
            assert counts == sorted(counts)


class TestFig13AndFig14:
    @pytest.fixture(scope="class")
    def throughput_result(self):
        config = fig13_throughput.Fig13Config(
            skews=(2.0,),
            num_messages=30_000,
            num_sources=16,
            num_workers=32,
        )
        return fig13_throughput.run(config)

    @pytest.fixture(scope="class")
    def latency_result(self):
        config = fig14_latency.Fig14Config(
            skews=(2.0,),
            num_messages=30_000,
            num_sources=16,
            num_workers=32,
        )
        return fig14_latency.run(config)

    def test_throughput_ordering(self, throughput_result):
        values = {row["scheme"]: row["throughput_per_s"] for row in throughput_result.rows}
        assert values["KG"] <= values["PKG"] * 1.05
        assert values["KG"] <= values["SG"]
        assert values["D-C"] >= 0.8 * values["SG"]
        assert values["W-C"] >= 0.8 * values["SG"]

    def test_latency_ordering(self, latency_result):
        values = {row["scheme"]: row["p99_ms"] for row in latency_result.rows}
        assert values["SG"] <= values["KG"]
        assert values["W-C"] <= values["KG"]

    def test_latency_rows_have_percentiles(self, latency_result):
        assert {"p50_ms", "p95_ms", "p99_ms", "max_avg_ms"} <= set(latency_result.rows[0])


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return fig18_adaptive.run(fig18_adaptive.Fig18Config.tiny())

    def test_rows_cover_every_scenario_and_scheme(self, result):
        config = fig18_adaptive.Fig18Config.tiny()
        scenarios = {row["scenario"] for row in result.rows}
        schemes = {row["scheme"] for row in result.rows}
        assert scenarios == set(config.scenarios)
        assert schemes == set(config.schemes)
        assert len(result.rows) == len(config.scenarios) * len(config.schemes)

    def test_ad_wins_at_least_two_drift_scenarios(self, result):
        # The headline claim of Figure 18 (ext.): strictly lower
        # worst-window imbalance than every static scheme at
        # equal-or-lower replication, on >= 2 drift scenarios.
        wins = {
            row["scenario"]
            for row in result.rows
            if row["scheme"] == fig18_adaptive.ADAPTIVE_SCHEME and row["ad_wins"]
        }
        assert len(wins) >= 2, f"AD won only {sorted(wins)}"

    def test_ad_switches_and_pays_for_them(self, result):
        # The controller must actually act under drift, and the
        # migration accountant must price the moves.  A switch may move
        # zero keys (the ladder rungs share the tail hash family, so
        # only head keys travel), but across the sweep some switch has
        # to carry a nonzero bill.
        ad_rows = [
            row for row in result.rows
            if row["scheme"] == fig18_adaptive.ADAPTIVE_SCHEME
        ]
        assert sum(row["switches"] for row in ad_rows) > 0
        assert any(row["keys_moved"] > 0 for row in ad_rows)
        for row in ad_rows:
            if row["switches"] == 0:
                assert row["keys_moved"] == 0 and row["entries_migrated"] == 0


class TestTable1:
    def test_rows_for_every_dataset(self):
        config = table1_datasets.Table1Config(measured_messages=20_000)
        result = table1_datasets.run(config)
        assert {row["symbol"] for row in result.rows} == {"WP", "TW", "CT", "ZF"}

    def test_measured_p1_close_to_published_for_wp(self):
        config = table1_datasets.Table1Config(measured_messages=50_000)
        result = table1_datasets.run(config)
        wp = next(row for row in result.rows if row["symbol"] == "WP")
        assert wp["repro_p1_pct"] == pytest.approx(9.32, abs=1.5)
