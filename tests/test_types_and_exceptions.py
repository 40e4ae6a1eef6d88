"""Unit tests for the shared value types and the exception hierarchy."""

from __future__ import annotations

import dataclasses

import pytest

from repro import exceptions
from repro.types import DatasetStats, LoadSnapshot, Message, RoutingDecision


class TestExceptions:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "PartitioningError",
            "SketchError",
            "WorkloadError",
            "SimulationError",
            "AnalysisError",
        ):
            error_class = getattr(exceptions, name)
            assert issubclass(error_class, exceptions.ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.SketchError("boom")


class TestMessage:
    def test_fields(self):
        message = Message(timestamp=1.0, key="k", value={"payload": 1})
        assert message.timestamp == 1.0
        assert message.key == "k"
        assert message.value == {"payload": 1}

    def test_frozen(self):
        message = Message(timestamp=1.0, key="k")
        with pytest.raises(AttributeError):
            message.key = "other"  # type: ignore[misc]


class TestRoutingDecision:
    def test_carries_only_what_the_engine_reads(self):
        # The worker and the head bit; a key's candidates are the pure
        # ``Partitioner.key_candidates``.
        fields = dataclasses.fields(RoutingDecision)
        assert tuple(field.name for field in fields) == ("worker", "is_head")
        assert RoutingDecision(worker=3).is_head is False


class TestDatasetStats:
    def test_as_row_percentage(self):
        stats = DatasetStats(name="X", symbol="X", messages=10, keys=5, p1=0.0932)
        row = stats.as_row()
        assert row["p1(%)"] == pytest.approx(9.32)
        assert row["Messages"] == 10


class TestLoadSnapshot:
    def test_total_and_normalized(self):
        snapshot = LoadSnapshot(time=0.0, loads=[2, 2, 4])
        assert snapshot.total == 8
        assert snapshot.normalized == pytest.approx([0.25, 0.25, 0.5])

    def test_imbalance_matches_definition(self):
        snapshot = LoadSnapshot(time=0.0, loads=[2, 2, 4])
        assert snapshot.imbalance == pytest.approx(0.5 - 1 / 3)

    def test_imbalance_never_negative(self):
        snapshot = LoadSnapshot(time=0.0, loads=[3, 3, 3])
        assert snapshot.imbalance >= 0.0
