"""Tests for the content-addressed suite results store."""

from __future__ import annotations

import json
import re

import pytest

from repro.exceptions import ConfigurationError
from repro.suite import store as store_module
from repro.suite.store import (
    RECORD_VERSION,
    ResultRecord,
    ResultsStore,
    config_fingerprint,
    current_code_digest,
    open_store,
)


def _record(experiment_id="fig3", scale="tiny", config=None, **overrides):
    config = config or {"skews": [0.8], "num_keys": 10_000}
    fingerprint = config_fingerprint(experiment_id, scale, config)
    defaults = dict(
        experiment_id=experiment_id,
        scale=scale,
        fingerprint=fingerprint,
        config=config,
        result={
            "experiment_id": experiment_id,
            "title": "t",
            "parameters": {},
            "rows": [{"a": 1}, {"a": 2}],
            "notes": [],
        },
        elapsed_seconds=0.5,
    )
    defaults.update(overrides)
    return ResultRecord(**defaults)


class TestFingerprint:
    def test_deterministic(self):
        config = {"x": 1, "y": [1, 2.5, "z"]}
        assert config_fingerprint("fig1", "tiny", config) == config_fingerprint(
            "fig1", "tiny", dict(config)
        )

    def test_key_order_irrelevant(self):
        assert config_fingerprint("fig1", "tiny", {"a": 1, "b": 2}) == config_fingerprint(
            "fig1", "tiny", {"b": 2, "a": 1}
        )

    def test_varies_with_identity_scale_and_config(self):
        base = config_fingerprint("fig1", "tiny", {"a": 1})
        assert config_fingerprint("fig2", "tiny", {"a": 1}) != base
        assert config_fingerprint("fig1", "quick", {"a": 1}) != base
        assert config_fingerprint("fig1", "tiny", {"a": 2}) != base

    def test_mode_is_non_semantic(self):
        # The columnar routing path is bit-identical to scalar routing, so
        # cached records must stay valid under any execution mode.
        columnar = config_fingerprint("fig1", "tiny", {"a": 1, "mode": "columnar:4096"})
        scalar = config_fingerprint("fig1", "tiny", {"a": 1, "mode": "scalar"})
        bare = config_fingerprint("fig1", "tiny", {"a": 1})
        assert columnar == scalar == bare


class TestResultsStore:
    def test_save_then_load_roundtrip(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        record = _record()
        path = store.save(record)
        assert path.is_file()
        loaded = store.load(record.experiment_id, record.scale, record.fingerprint)
        assert loaded is not None
        assert loaded.result == record.result
        assert loaded.num_rows() == 2
        assert loaded.created_at  # stamped at construction

    def test_miss_on_unknown_cell(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        assert store.load("fig3", "tiny", "0" * 64) is None

    def test_corrupt_record_counts_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        record = _record()
        path = store.save(record)
        path.write_text("{ not json", encoding="utf-8")
        assert store.load(record.experiment_id, record.scale, record.fingerprint) is None
        assert list(store.iter_records()) == []

    def test_version_mismatch_counts_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        record = _record()
        path = store.save(record)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["record_version"] = RECORD_VERSION + 1
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.load(record.experiment_id, record.scale, record.fingerprint) is None

    def test_a_record_is_a_hit_only_under_its_own_code_digest(self, tmp_path, monkeypatch):
        # The fingerprint covers the config alone; the digest of the code
        # that computed the record keeps other code's results from serving.
        store = ResultsStore(tmp_path / "results")
        record = _record(code_digest="a" * 64)
        store.save(record)
        cell = (record.experiment_id, record.scale, record.fingerprint)
        assert store.load(*cell) is None
        monkeypatch.setattr(store_module, "current_code_digest", lambda: "a" * 64)
        loaded = store.load(*cell)
        assert loaded is not None and loaded.code_digest == "a" * 64
        monkeypatch.setattr(store_module, "current_code_digest", lambda: "b" * 64)
        assert store.load(*cell) is None

    def test_a_record_without_a_code_digest_is_a_miss(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        record = _record()
        path = store.save(record)
        assert store.load(record.experiment_id, record.scale, record.fingerprint) is not None
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["code_digest"]
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.load(record.experiment_id, record.scale, record.fingerprint) is None

    def test_records_are_stamped_with_the_process_code_digest(self):
        digest = current_code_digest()
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert current_code_digest() is digest  # taken once per process
        assert _record().code_digest == digest

    def test_iter_records_lists_everything(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        store.save(_record("fig3"))
        store.save(_record("fig4", config={"other": True}))
        identifiers = [record.experiment_id for record in store.iter_records()]
        assert identifiers == ["fig3", "fig4"]

    def test_clear_all_and_subset(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        store.save(_record("fig3"))
        store.save(_record("fig4", config={"other": True}))
        assert store.clear(["fig4"]) == 1
        assert [r.experiment_id for r in store.iter_records()] == ["fig3"]
        assert store.clear() == 1
        assert list(store.iter_records()) == []

    def test_clear_empty_store(self, tmp_path):
        assert ResultsStore(tmp_path / "nowhere").clear() == 0

    def test_clear_never_touches_foreign_json(self, tmp_path):
        # A user may point --results-dir at a directory with other content;
        # clear() must only delete the store's own <scale>-<hash16>.json.
        store = ResultsStore(tmp_path)
        store.save(_record("fig3"))
        foreign = tmp_path / "myproject" / "package.json"
        foreign.parent.mkdir()
        foreign.write_text("{}", encoding="utf-8")
        assert store.clear() == 1
        assert foreign.is_file()
        assert list(store.iter_records()) == []

    def test_open_store_rejects_file_path(self, tmp_path):
        target = tmp_path / "results.json"
        target.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            open_store(target)
