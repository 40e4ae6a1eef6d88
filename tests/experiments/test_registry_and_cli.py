"""Tests for the experiment registry and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.experiments.registry import get_experiment, list_experiments, run_experiment

EXPECTED_EXPERIMENTS = {
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "scenarios",
    "table1",
}


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        assert set(list_experiments()) == EXPECTED_EXPERIMENTS

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("FIG1").experiment_id == "fig1"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_entries_have_titles_and_configs(self):
        for experiment_id in list_experiments():
            entry = get_experiment(experiment_id)
            assert entry.title
            assert entry.quick_config() is not None
            assert entry.paper_config() is not None

    def test_run_experiment_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            run_experiment("fig3", scale="huge")

    def test_run_analytical_experiment_quick(self):
        # fig3 and fig4 are purely analytical, hence fast enough for a unit test
        result = run_experiment("fig3", scale="quick")
        assert result.experiment_id == "fig3"
        assert result.rows

    def test_fig4_quick_rows_have_expected_columns(self):
        result = run_experiment("fig4", scale="quick")
        assert {"workers", "skew", "d", "d_over_n"} <= set(result.rows[0])


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig13" in output
        assert "table1" in output

    def test_run_command_analytical(self, capsys):
        assert main(["run", "fig3"]) == 0
        output = capsys.readouterr().out
        assert "head_cardinality" in output

    @pytest.mark.parametrize(
        "experiment_id", ["fig3", "fig4", "fig5", "fig6", "fig13", "fig14", "table1"]
    )
    def test_run_rejects_a_mode_the_experiment_cannot_take(
        self, capsys, experiment_id
    ):
        assert main(["run", experiment_id, "--scale", "tiny", "--mode", "scalar"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {experiment_id} has no execution mode" in captured.err

    def test_run_applies_mode_where_the_config_has_one(self, capsys):
        assert main(["run", "fig1", "--scale", "tiny", "--mode", "scalar"]) == 0
        assert "imbalance" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--scheme",
                "PKG",
                "--workers",
                "5",
                "--messages",
                "2000",
                "--keys",
                "100",
                "--skew",
                "1.0",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "imbalance" in output

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestScenarioCli:
    def test_scenario_list_names_the_catalog(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("flash_crowd", "single_key_flood", "drift_mixture"):
            assert name in output

    def test_scenario_show_prints_spec_and_seeds(self, capsys):
        assert main(["scenario", "show", "single_key_flood"]) == 0
        output = capsys.readouterr().out
        assert "pattern: single_key_flood" in output
        assert "truth seed" in output
        assert "max_imbalance" in output

    def test_scenario_show_unknown_name_fails_loudly(self, capsys):
        assert main(["scenario", "show", "nope"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err

    def test_scenario_run_checks_expected_bounds(self, capsys):
        exit_code = main(
            [
                "scenario", "run", "flash_crowd",
                "--scheme", "D-C",
                "--messages", "5000",
                "--keys", "500",
                "--workers", "8",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "within expected bounds" in output

    def test_scenario_run_violation_exits_nonzero(self, capsys):
        # KG puts the whole 40% flood on one worker — far past every bound.
        exit_code = main(
            [
                "scenario", "run", "single_key_flood",
                "--scheme", "KG",
                "--messages", "5000",
                "--keys", "500",
                "--workers", "8",
            ]
        )
        assert exit_code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_scenario_run_unknown_name(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
