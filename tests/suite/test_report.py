"""Tests for the suite report module (staleness and duplicate cells)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.suite.orchestrator import run_suite
from repro.suite.report import render_report, report_rows
from repro.suite.store import ResultsStore


@pytest.fixture
def store_with_stale_record(tmp_path):
    store = ResultsStore(tmp_path / "results")
    run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
    current = next(store.iter_records())
    # Same cell under an old fingerprint, as left behind by a preset change.
    store.save(dataclasses.replace(current, fingerprint="ab" * 32))
    return store


def test_current_column_flags_stale_records(store_with_stale_record):
    by_fingerprint = {
        row["fingerprint"]: row["current"]
        for row in report_rows(store_with_stale_record)
    }
    assert by_fingerprint["abababababababab"] == "no"
    assert sorted(by_fingerprint.values()) == ["no", "yes"]


def test_current_column_flags_records_of_other_code(tmp_path):
    store = ResultsStore(tmp_path / "results")
    run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
    record = next(store.iter_records())
    assert [row["current"] for row in report_rows(store)] == ["yes"]
    store.save(dataclasses.replace(record, code_digest="a" * 64))
    assert [row["current"] for row in report_rows(store)] == ["no"]


def test_duplicate_cells_get_distinct_runtime_bars(store_with_stale_record):
    report = render_report(store_with_stale_record)
    bar_lines = [line for line in report.splitlines() if line.startswith("fig3/tiny")]
    # Both records are charted, disambiguated by fingerprint.
    assert len(bar_lines) == 2
    assert any("@ababab" in line for line in bar_lines)


def test_scale_filter(store_with_stale_record):
    assert report_rows(store_with_stale_record, scale="paper") == []
    assert len(report_rows(store_with_stale_record, scale="tiny")) == 2
