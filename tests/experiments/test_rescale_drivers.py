"""Behavioural tests for the elasticity experiment drivers (fig15/fig16)."""

from __future__ import annotations

import pytest

from repro.experiments import fig15_rescale_imbalance, fig16_migration_cost


@pytest.fixture(scope="module")
def fig15_result():
    return fig15_rescale_imbalance.run(
        fig15_rescale_imbalance.DESCRIPTOR.config("tiny")
    )


@pytest.fixture(scope="module")
def fig16_result():
    return fig16_migration_cost.run(fig16_migration_cost.DESCRIPTOR.config("tiny"))


class TestFig15:
    def test_rows_cover_every_scheme(self, fig15_result):
        schemes = {row["scheme"] for row in fig15_result.rows}
        assert schemes == set(fig15_rescale_imbalance.SCHEMES)

    def test_worker_trajectory_follows_the_schedule(self, fig15_result):
        # tiny schedule: join@5000, leave@12000, fail@15000 from 10 workers.
        rows = fig15_result.filtered(scheme="PKG")
        by_offset = {row["messages"]: row["workers"] for row in rows}
        assert min(by_offset.values()) >= 8
        assert max(by_offset.values()) == 11
        final = by_offset[max(by_offset)]
        assert final == 9  # 10 + 1 - 1 - 1

    def test_imbalance_values_are_probabilities(self, fig15_result):
        assert all(
            0.0 <= row["imbalance"] <= 1.0 for row in fig15_result.rows
        )

    def test_load_aware_schemes_reconverge_below_pkg(self, fig15_result):
        def final_imbalance(scheme: str) -> float:
            rows = fig15_result.filtered(scheme=scheme)
            return rows[-1]["imbalance"]

        assert final_imbalance("W-C") < final_imbalance("PKG")
        assert final_imbalance("D-C") < final_imbalance("PKG")


class TestFig16:
    def test_rows_cover_every_scheme_policy_cell(self, fig16_result):
        cells = {(row["scheme"], row["policy"]) for row in fig16_result.rows}
        assert len(cells) == len(fig16_migration_cost.SCHEMES) * 3

    def test_every_cell_applied_all_events(self, fig16_result):
        assert all(row["events"] == 3 for row in fig16_result.rows)

    def test_consistent_hashing_moves_fewest_keys(self, fig16_result):
        for policy in ("rehash", "migrate", "remap"):
            ch = fig16_result.filtered(scheme="CH", policy=policy)[0]
            pkg = fig16_result.filtered(scheme="PKG", policy=policy)[0]
            assert ch["keys_moved"] * 4 < pkg["keys_moved"]

    def test_only_migrate_misroutes(self, fig16_result):
        for row in fig16_result.rows:
            if row["policy"] == "migrate" and row["scheme"] != "SG":
                assert row["tuples_misrouted"] > 0
            if row["policy"] in ("rehash", "remap"):
                assert row["tuples_misrouted"] == 0

    def test_fail_event_loses_state(self, fig16_result):
        # The tiny schedule ends with fail@15000, so every scheme records
        # lost entries (the failed worker held state by then).
        for scheme in fig16_migration_cost.SCHEMES:
            row = fig16_result.filtered(scheme=scheme, policy="migrate")[0]
            assert row["entries_lost"] > 0

    def test_bytes_scale_with_entries(self, fig16_result):
        for row in fig16_result.rows:
            assert row["bytes_migrated"] == row["entries_migrated"] * 64
