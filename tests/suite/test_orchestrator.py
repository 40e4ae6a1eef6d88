"""Suite orchestrator tests, including the full tiny-scale smoke run."""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.suite import store as store_module
from repro.suite.orchestrator import run_suite
from repro.suite.store import ResultsStore


class TestSuiteSmoke:
    """The one-command reproduction: every registered experiment, in
    parallel, with cache hits on the second pass (the acceptance criterion
    of the suite subsystem)."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ResultsStore(tmp_path_factory.mktemp("results"))

    @pytest.fixture(scope="class")
    def first_run(self, store):
        return run_suite(scale="tiny", jobs=2, store=store)

    def test_every_registered_experiment_lands_in_the_store(self, store, first_run):
        assert first_run.ok
        assert {o.experiment_id for o in first_run.outcomes} == set(
            registry.list_experiments()
        )
        assert all(o.status == "computed" for o in first_run.outcomes)
        stored = {record.experiment_id for record in store.iter_records()}
        assert stored == set(registry.list_experiments())

    def test_records_round_trip_to_experiment_results(self, store, first_run):
        for record in store.iter_records():
            result = ExperimentResult.from_dict(record.result)
            assert result.experiment_id == record.experiment_id
            assert result.rows, f"{record.experiment_id} stored no rows"
            assert record.elapsed_seconds >= 0.0

    def test_second_run_is_all_cache_hits(self, store, first_run):
        again = run_suite(scale="tiny", jobs=1, store=store)
        assert again.ok
        assert all(o.status == "cached" for o in again.outcomes)
        assert {o.fingerprint for o in again.outcomes} == {
            o.fingerprint for o in first_run.outcomes
        }

    def test_progress_callback_sees_every_cell(self, store, first_run):
        seen = []
        run_suite(
            scale="tiny",
            jobs=1,
            store=store,
            progress=lambda outcome, done, total: seen.append((outcome.experiment_id, done, total)),
        )
        assert len(seen) == len(registry.list_experiments())
        assert seen[-1][1] == seen[-1][2] == len(seen)


class TestOrchestratorBehaviour:
    def test_subset_and_force(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        first = run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
        assert [o.status for o in first.outcomes] == ["computed"]
        forced = run_suite(
            experiment_ids=["fig3"], scale="tiny", jobs=1, store=store, force=True
        )
        assert [o.status for o in forced.outcomes] == ["computed"]

    def test_a_record_of_other_code_recomputes_and_is_overwritten(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path / "results")
        monkeypatch.setattr(store_module, "current_code_digest", lambda: "a" * 64)
        run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
        monkeypatch.undo()
        again = run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
        assert [o.status for o in again.outcomes] == ["computed"]
        [record] = store.iter_records()
        assert record.code_digest == store_module.current_code_digest()
        hit = run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
        assert [o.status for o in hit.outcomes] == ["cached"]

    def test_failed_cell_reported_not_raised(self, tmp_path, monkeypatch):
        def boom(config):
            raise RuntimeError("driver exploded")

        entry = registry.get_experiment("fig3")
        broken = dataclasses.replace(
            entry, descriptor=dataclasses.replace(entry.descriptor, run=boom)
        )
        monkeypatch.setitem(registry._REGISTRY, "fig3", broken)

        store = ResultsStore(tmp_path / "results")
        summary = run_suite(experiment_ids=["fig3", "fig4"], scale="tiny", jobs=1, store=store)
        by_id = {o.experiment_id: o for o in summary.outcomes}
        assert not summary.ok
        assert by_id["fig3"].status == "failed"
        # The full traceback is kept; the summary line is just its last line.
        assert "Traceback" in (by_id["fig3"].error or "")
        assert by_id["fig3"].error_summary == "RuntimeError: driver exploded"
        assert by_id["fig4"].status == "computed"
        # Nothing bogus lands in the store for the failed cell.
        assert {r.experiment_id for r in store.iter_records()} == {"fig4"}

    def test_summary_as_result_is_exportable(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        summary = run_suite(experiment_ids=["fig3"], scale="tiny", jobs=1, store=store)
        result = summary.as_result()
        assert result.parameters["cells"] == 1
        assert result.rows[0]["experiment"] == "fig3"
        assert result.rows[0]["status"] == "computed"

    def test_rejects_bad_scale_and_jobs(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        with pytest.raises(ConfigurationError):
            run_suite(scale="huge", store=store)
        with pytest.raises(ConfigurationError):
            run_suite(scale="tiny", jobs=0, store=store)

    def test_empty_subset_runs_nothing(self, tmp_path):
        summary = run_suite(
            experiment_ids=[],
            scale="tiny",
            jobs=1,
            store=ResultsStore(tmp_path / "results"),
        )
        assert summary.outcomes == []
        assert summary.ok

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_suite(
                experiment_ids=["fig99"],
                scale="tiny",
                jobs=1,
                store=ResultsStore(tmp_path / "results"),
            )
