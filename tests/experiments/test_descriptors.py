"""Structural tests for the declarative experiment descriptors."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.execution import ExecutionMode
from repro.experiments.common import ExperimentResult
from repro.experiments.descriptor import SCALES, OutputSpec
from repro.experiments.registry import get_experiment, list_experiments, run_experiment


class TestDescriptors:
    def test_every_entry_carries_a_complete_descriptor(self):
        for experiment_id in list_experiments():
            descriptor = get_experiment(experiment_id).descriptor
            assert descriptor.experiment_id == experiment_id
            assert descriptor.title
            # Paper artifacts, plus beyond-paper extensions ("... (ext.)")
            # such as the scenario catalog.
            assert descriptor.artifact.startswith(("Figure", "Table", "Scenarios"))
            assert descriptor.claim.rstrip().endswith(".")
            assert descriptor.kind in {"analytical", "simulation", "cluster", "dataflow"}
            assert descriptor.output.kind in {"series", "bars", "table"}

    def test_every_scale_builds_a_config(self):
        for experiment_id in list_experiments():
            descriptor = get_experiment(experiment_id).descriptor
            for scale in SCALES:
                assert descriptor.config(scale) is not None

    def test_tiny_streams_are_no_larger_than_quick(self):
        for experiment_id in list_experiments():
            descriptor = get_experiment(experiment_id).descriptor
            tiny, quick = descriptor.config("tiny"), descriptor.config("quick")
            for attribute in ("num_messages", "measured_messages"):
                if hasattr(tiny, attribute):
                    assert getattr(tiny, attribute) <= getattr(quick, attribute)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig3").descriptor.config("huge")

    def test_simulation_configs_expose_mode(self):
        for experiment_id in list_experiments():
            descriptor = get_experiment(experiment_id).descriptor
            if descriptor.kind == "simulation":
                config = descriptor.config("tiny")
                assert hasattr(config, "mode"), experiment_id
                assert not hasattr(config, "batch_size"), experiment_id

    @pytest.mark.parametrize("experiment_id", list_experiments())
    def test_configure_mode_applies_or_is_rejected(self, experiment_id):
        """A mode either reaches the config or names the experiment that
        has none to choose; it is never silently dropped."""
        descriptor = get_experiment(experiment_id).descriptor
        if hasattr(descriptor.config("tiny"), "mode"):
            config = descriptor.configure("tiny", mode="scalar")
            assert config.mode == ExecutionMode.scalar()
        else:
            with pytest.raises(ConfigurationError, match=experiment_id):
                descriptor.configure("tiny", mode="scalar")
        assert descriptor.configure("tiny") == descriptor.config("tiny")

    def test_run_at_tiny_scale(self):
        result = run_experiment("fig3", scale="tiny")
        assert result.experiment_id == "fig3"
        assert result.rows

    def test_cli_main_runs_a_driver_module(self, capsys):
        get_experiment("fig3").descriptor.cli_main(["--scale", "tiny"])
        output = capsys.readouterr().out
        assert "head_cardinality" in output
        assert "legend:" in output  # the OutputSpec chart is rendered


class TestOutputSpec:
    @pytest.fixture
    def result(self):
        return ExperimentResult(
            experiment_id="x",
            title="t",
            rows=[
                {"scheme": "PKG", "workers": 5, "imbalance": 0.1},
                {"scheme": "PKG", "workers": 50, "imbalance": 0.3},
                {"scheme": "W-C", "workers": 5, "imbalance": 0.01},
                {"scheme": "W-C", "workers": 50, "imbalance": 0.02},
            ],
        )

    def test_series_render(self, result):
        spec = OutputSpec(kind="series", x="workers", y="imbalance", series_by=("scheme",))
        chart = spec.render(result)
        assert chart is not None
        assert "PKG" in chart and "W-C" in chart

    def test_bars_render(self, result):
        spec = OutputSpec(kind="bars", x="workers", y="imbalance", series_by=("scheme",))
        chart = spec.render(result)
        assert chart is not None
        assert "PKG/5" in chart

    def test_table_kind_renders_nothing(self, result):
        assert OutputSpec(kind="table").render(result) is None

    def test_unknown_kind_rejected(self, result):
        with pytest.raises(ConfigurationError):
            OutputSpec(kind="pie", x="workers", y="imbalance").render(result)
