"""End-to-end tests of the multi-process cluster runtime.

These spawn real processes (fork start method) and move real bytes through
shared-memory rings; they are marked ``cluster`` so CI can select them into
the dedicated smoke job.  Sizes are kept small — each run takes well under
a second.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.exceptions import ConfigurationError, WorkerCrashError
from repro.runtime import (
    ClusterConfig,
    run_cluster,
    validate_against_simulation,
)
from repro.simulation.runner import run_simulation

pytestmark = [
    pytest.mark.cluster,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="cluster runtime requires the fork start method",
    ),
]


def small_config(**overrides) -> ClusterConfig:
    defaults = dict(
        scheme="PKG",
        num_workers=2,
        num_messages=12_000,
        num_keys=1_500,
        skew=1.4,
        seed=0,
        service_ns=2_000,
        mode="columnar:256",
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestEndToEnd:
    def test_every_message_arrives_exactly_once(self):
        config = small_config()
        result = run_cluster(config)
        assert result.messages_total == config.num_messages
        assert sum(result.worker_processed) == config.num_messages
        # The source's routing view and the workers' receiving view agree.
        assert result.source_loads == result.worker_processed

    def test_real_counts_match_simulator_exactly(self):
        config = small_config()
        result = run_cluster(config)
        simulated = run_simulation(
            config.build_workload(),
            scheme=config.scheme,
            num_workers=config.num_workers,
            num_sources=1,
            seed=config.seed,
            mode=config.mode,
        )
        assert result.worker_processed == list(simulated.worker_loads)
        assert result.imbalance == pytest.approx(simulated.final_imbalance)

    def test_validation_helper_reports_exact_match(self):
        config = small_config()
        report = validate_against_simulation(config)
        assert report["loads_match"]
        assert report["within_tolerance"]
        assert report["relative_difference"] == pytest.approx(0.0, abs=1e-12)

    def test_workers_decode_keys_through_delta_synced_dictionary(self):
        config = small_config()
        result = run_cluster(config)
        # The hottest reported key must be a real workload key (Zipf ranks
        # start at 1), and every worker's replica covers the dictionary.
        for worker in result.worker_results:
            if worker.top_keys:
                hottest, count = worker.top_keys[0]
                assert 1 <= hottest <= config.num_keys
                assert count > 0
            assert worker.dict_entries <= result.dict_entries
        assert result.dict_entries > 0

    def test_head_summary_published_for_head_tail_schemes(self):
        result = run_cluster(small_config(scheme="D-C", skew=1.6))
        assert result.head  # SpaceSaving summary decoded back to keys
        hottest = max(result.head, key=result.head.get)
        assert hottest == 1  # Zipf rank 1 dominates at skew 1.6

    def test_scalar_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="columnar-only"):
            small_config(mode="scalar")


class TestFailureHandling:
    """Strict mode: supervision disabled, failures raise as in PR 8."""

    def test_worker_crash_raises_naming_the_worker(self):
        # Small rings keep the source backpressured behind the crashed
        # worker, so the failure is detected mid-stream deterministically
        # (with roomy rings the whole share buffers, the source finishes,
        # and the end-of-stream salvage path completes the run instead).
        config = small_config(
            inject="crash@w1:2000",
            max_restarts=0,
            degrade_when_exhausted=False,
            ring_capacity_words=2_048,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            run_cluster(config)
        error = excinfo.value
        assert error.worker_id == 1
        assert "worker 1" in str(error)
        assert error.restarts == 0
        # Healthy workers' progress is salvaged into the partial payload.
        assert error.partial is not None
        assert sum(error.partial["worker_processed"]) > 0

    def test_worker_hang_detected_by_heartbeat_timeout(self):
        config = small_config(
            inject="hang@w0:2000",
            heartbeat_timeout_s=0.4,
            max_restarts=0,
            degrade_when_exhausted=False,
            ring_capacity_words=2_048,
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            run_cluster(config)
        assert excinfo.value.worker_id == 0
        assert "heartbeat" in str(excinfo.value)

    def test_fault_plan_naming_a_missing_worker_is_rejected(self):
        with pytest.raises(ConfigurationError, match="names worker 7"):
            small_config(inject="crash@w7:100")


class TestScaling:
    def test_more_workers_increase_aggregate_throughput(self):
        # The per-message service time is the bottleneck; two workers
        # overlap their (blocking) service and must beat one. Modest bar —
        # the bench pins the real scaling curve with bigger streams.
        base = dict(
            num_messages=24_000, num_keys=2_000, service_ns=8_000,
            mode="columnar:512",
        )
        one = run_cluster(small_config(num_workers=1, **base))
        four = run_cluster(small_config(num_workers=4, **base))
        assert four.agg_msgs_per_sec > 1.4 * one.agg_msgs_per_sec
