"""Unit tests for the synthetic real-world stand-ins, file loader and catalog."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.catalog import DATASETS, dataset_stats, load_dataset, table1_rows
from repro.workloads.file_stream import FileWorkload
from repro.workloads.synthetic import (
    CashtagLikeWorkload,
    TwitterLikeWorkload,
    WikipediaLikeWorkload,
)


class TestWikipediaLike:
    def test_p1_matches_published_value(self):
        workload = WikipediaLikeWorkload(num_messages=200_000, num_body_keys=5000, seed=1)
        counts = Counter(workload.keys())
        p1 = counts.most_common(1)[0][1] / 200_000
        assert p1 == pytest.approx(0.0932, abs=0.01)

    def test_nominal_stats(self):
        workload = WikipediaLikeWorkload(num_messages=1000, num_body_keys=100)
        stats = workload.stats()
        assert stats.symbol == "WP"
        assert stats.p1 == pytest.approx(0.0932, abs=1e-4)

    def test_hot_key_is_labelled_head(self):
        workload = WikipediaLikeWorkload(num_messages=5000, num_body_keys=100, seed=2)
        counts = Counter(workload.keys())
        assert counts.most_common(1)[0][0].startswith("head-")

    def test_reproducible(self):
        one = list(WikipediaLikeWorkload(num_messages=2000, num_body_keys=100, seed=3))
        two = list(WikipediaLikeWorkload(num_messages=2000, num_body_keys=100, seed=3))
        assert one == two


class TestTwitterLike:
    def test_p1_matches_published_value(self):
        workload = TwitterLikeWorkload(num_messages=200_000, num_body_keys=5000, seed=1)
        counts = Counter(workload.keys())
        p1 = counts.most_common(1)[0][1] / 200_000
        assert p1 == pytest.approx(0.0267, abs=0.007)

    def test_nominal_stats(self):
        stats = TwitterLikeWorkload(num_messages=1000, num_body_keys=5000).stats()
        assert stats.symbol == "TW"
        assert stats.p1 == pytest.approx(0.0267, abs=1e-4)


class TestCashtagLike:
    def test_key_space_size(self):
        workload = CashtagLikeWorkload(num_messages=20_000, num_keys=500, seed=1)
        keys = set(workload.keys())
        assert len(keys) <= 500

    def test_drift_changes_hot_key(self):
        workload = CashtagLikeWorkload(
            num_messages=40_000, num_keys=500, num_hours=4, exponent=1.5, seed=1
        )
        keys = list(workload.keys())
        quarter = len(keys) // 4
        first = Counter(keys[:quarter]).most_common(1)[0][0]
        last = Counter(keys[-quarter:]).most_common(1)[0][0]
        assert first != last

    def test_stats_symbol(self):
        assert CashtagLikeWorkload(num_messages=100).stats().symbol == "CT"

    def test_epoch_accessors(self):
        workload = CashtagLikeWorkload(num_messages=800, num_hours=8)
        assert workload.num_epochs == 8
        assert workload.epoch_of_message(0) == 0


class TestFileWorkload:
    def test_reads_keys_from_file(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("a\nb\na\n\nc\n", encoding="utf-8")
        workload = FileWorkload(path)
        assert list(workload.keys()) == ["a", "b", "a", "c"]

    def test_stats_counts_exactly(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("a\na\nb\n", encoding="utf-8")
        stats = FileWorkload(path, name="test").stats()
        assert stats.messages == 3
        assert stats.keys == 2
        assert stats.p1 == pytest.approx(2 / 3)

    def test_key_column_extraction(self, tmp_path):
        path = tmp_path / "records.tsv"
        path.write_text("1\tfoo\n2\tbar\n", encoding="utf-8")
        workload = FileWorkload(path, key_column=1)
        assert list(workload.keys()) == ["foo", "bar"]

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("only-one-column\n", encoding="utf-8")
        workload = FileWorkload(path, key_column=3)
        with pytest.raises(WorkloadError):
            list(workload.keys())

    def test_limit(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(str(i) for i in range(100)), encoding="utf-8")
        workload = FileWorkload(path, limit=10)
        assert len(list(workload.keys())) == 10

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(WorkloadError):
            FileWorkload(tmp_path / "does-not-exist.txt")

    def test_negative_limit_rejected(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("a\n", encoding="utf-8")
        with pytest.raises(WorkloadError):
            FileWorkload(path, limit=-1)


class TestCatalog:
    def test_all_symbols_present(self):
        assert set(DATASETS) == {"WP", "TW", "CT", "ZF"}

    def test_dataset_stats_published_values(self):
        stats = dataset_stats("WP")
        assert stats.messages == 22_000_000
        assert stats.keys == 2_900_000
        assert stats.p1 == pytest.approx(0.0932)

    def test_dataset_stats_unknown_symbol(self):
        with pytest.raises(WorkloadError):
            dataset_stats("XX")

    def test_load_dataset_zf(self):
        workload = load_dataset("zf", exponent=1.5, num_keys=100, num_messages=50)
        assert len(list(workload)) == 50

    def test_load_dataset_wp(self):
        workload = load_dataset("WP", num_messages=100, seed=1)
        assert len(list(workload)) == 100

    def test_load_dataset_unknown(self):
        with pytest.raises(WorkloadError):
            load_dataset("nope")

    def test_table1_rows_published(self):
        rows = table1_rows(measured=False)
        assert len(rows) == 4
        assert {row["Symbol"] for row in rows} == {"WP", "TW", "CT", "ZF"}

    def test_substitution_notes_present(self):
        assert all(entry.substitution_note for entry in DATASETS.values())

    def test_load_dataset_rejects_unknown_kwargs(self):
        # A typo must not silently build a default-sized stream.
        with pytest.raises(WorkloadError, match="num_mesages"):
            load_dataset("ZF", num_mesages=10)
        with pytest.raises(WorkloadError, match="WP"):
            load_dataset("WP", exponent=1.5)  # WP has no exponent knob


class TestTable1Measured:
    """Measured stand-in stats track the published Table I numbers."""

    @staticmethod
    def _measured_rows():
        rows = table1_rows(
            measured=True,
            overrides={
                "WP": {"num_messages": 150_000, "num_body_keys": 20_000},
                "TW": {"num_messages": 150_000, "num_body_keys": 30_000},
                # One hour isolates the within-epoch distribution the CT
                # stand-in was calibrated on (drift dilutes the global p1).
                "CT": {"num_messages": 150_000, "num_hours": 1},
            },
            num_messages=150_000,
            exponent=2.0,
            num_keys=10_000,
        )
        return {row["Symbol"]: row for row in rows}

    def test_measured_p1_matches_published_within_tolerance(self):
        rows = self._measured_rows()
        # Published Table I p1 values: WP 9.32%, TW 2.67%, CT 3.29%.
        assert rows["WP"]["p1(%)"] == pytest.approx(9.32, abs=1.0)
        assert rows["TW"]["p1(%)"] == pytest.approx(2.67, abs=0.7)
        assert rows["CT"]["p1(%)"] == pytest.approx(3.29, abs=2.5)
        # ZF publishes no p1 (NaN); the Zipf(z=2) stand-in must match the
        # analytic value p1 = 1/zeta(2) ~ 60.8%.
        assert rows["ZF"]["p1(%)"] == pytest.approx(60.8, abs=2.0)

    def test_measured_scale_honours_overrides(self):
        rows = self._measured_rows()
        for symbol in ("WP", "TW", "CT", "ZF"):
            assert rows[symbol]["Messages"] == 150_000

    def test_unknown_override_symbol_rejected(self):
        with pytest.raises(WorkloadError, match="XX"):
            table1_rows(measured=True, overrides={"XX": {}})

    def test_invalid_override_kwargs_rejected(self):
        with pytest.raises(WorkloadError, match="CT"):
            table1_rows(measured=True, overrides={"CT": {"num_mesages": 10}})

    def test_every_override_is_checked_before_any_stream_is_built(self, monkeypatch):
        # CT comes after WP and TW, whose default streams are 2M messages:
        # a misspelt CT keyword must not cost their generation first.
        import dataclasses
        import functools

        from repro.workloads import catalog

        built = []

        def spy(entry):
            @functools.wraps(entry.factory)
            def factory(**kwargs):
                built.append(entry.symbol)
                return entry.factory(**kwargs)

            return dataclasses.replace(entry, factory=factory)

        spied = {symbol: spy(entry) for symbol, entry in DATASETS.items()}
        monkeypatch.setattr(catalog, "DATASETS", spied)
        with pytest.raises(WorkloadError, match="CT"):
            table1_rows(measured=True, overrides={"CT": {"num_mesages": 10}})
        assert built == []
