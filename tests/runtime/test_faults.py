"""Fault injection and supervised recovery.

Three layers, cheapest first:

* :class:`TestFaultPlanParser` — pure unit tests of the spec grammar.
* :class:`TestStartupGrace` — monitor-level regression tests driven
  in-process against a fake process (no forking).
* the ``chaos``-marked classes — real multi-process runs with injected
  crashes, hangs, slowdowns and transport faults, asserting the supervisor
  recovers (or degrades) while conserving the stream exactly: every routed
  message is delivered once, itemised as lost in a drained ring, or
  delivered by a survivor through the redirect ledgers.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import (
    ClusterConfig,
    ClusterResult,
    FaultPlan,
    run_cluster,
    validate_against_simulation,
)
from repro.runtime.runtime import _Monitor
from repro.runtime.state import SharedClusterState, state_words

_CHAOS = [
    pytest.mark.cluster,
    pytest.mark.chaos,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="cluster runtime requires the fork start method",
    ),
]


class TestFaultPlanParser:
    def test_parse_roundtrips_through_spec(self):
        spec = "crash@w2:5000,hang@w1:12000,slow@w0:3x,delta_drop@w3:1"
        plan = FaultPlan.parse(spec)
        assert plan.spec == spec
        assert [f.kind for f in plan.faults] == [
            "crash", "hang", "slow", "delta_drop",
        ]
        assert [f.worker_id for f in plan.faults] == [2, 1, 0, 3]
        assert [f.arg for f in plan.faults] == [5000, 12000, 3, 1]
        assert plan.max_worker_id == 3

    def test_persistent_suffix_parses_and_roundtrips(self):
        plan = FaultPlan.parse("crash@w1:500!")
        assert plan.faults[0].persistent
        assert plan.spec == "crash@w1:500!"

    def test_whitespace_and_empty_entries_tolerated(self):
        plan = FaultPlan.parse(" crash@w0:10 , hang@w1:20 ")
        assert len(plan.faults) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ",",
            "crash@w0",
            "crash@0:10",
            "explode@w0:10",
            "crash@w0:10x",  # x suffix belongs to slow only
            "slow@w0:3",  # ...and slow requires it
            "slow@w0:0x",
            "delta_drop@w0:0",
            "crash@w0:ten",
        ],
    )
    def test_bad_specs_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(bad)

    def test_coerce_accepts_plan_string_and_none(self):
        plan = FaultPlan.parse("crash@w0:1")
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce("crash@w0:1") == plan
        assert FaultPlan.coerce(None) is None
        with pytest.raises(ConfigurationError):
            FaultPlan.coerce(42)

    def test_for_worker_merges_this_workers_faults_only(self):
        plan = FaultPlan.parse("crash@w0:100,slow@w0:4x,hang@w1:50")
        faults = plan.for_worker(0)
        assert faults.crash_after == 100
        assert faults.service_factor == 4
        assert faults.hang_after == -1
        assert plan.for_worker(2) is None

    def test_one_shot_faults_arm_first_incarnation_only(self):
        plan = FaultPlan.parse("crash@w0:100")
        assert plan.for_worker(0, incarnation=0).crash_after == 100
        assert plan.for_worker(0, incarnation=1) is None

    def test_persistent_faults_arm_every_incarnation(self):
        plan = FaultPlan.parse("crash@w0:100!")
        for incarnation in range(3):
            assert plan.for_worker(0, incarnation).crash_after == 100

    def test_delta_drop_tokens_are_consumed(self):
        faults = FaultPlan.parse("delta_drop@w0:2").for_worker(0)
        assert faults.take_delta_drop()
        assert faults.take_delta_drop()
        assert not faults.take_delta_drop()


class _FakeProcess:
    def __init__(self, alive: bool = True, exitcode=None) -> None:
        self._alive = alive
        self.exitcode = exitcode

    def is_alive(self) -> bool:
        return self._alive


def _monitor_config(**overrides) -> ClusterConfig:
    defaults = dict(num_workers=2, startup_grace_s=0.15, heartbeat_timeout_s=0.01)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


class TestStartupGrace:
    """A worker with *no* heartbeat yet is starting up, not hung.

    Regression: ``heartbeat_age_s == inf`` fed into the plain age check
    would declare every slow-forking (or freshly respawned) worker hung
    within one monitor tick.  The inf case must be governed by the
    explicit ``startup_grace_s``, independent of ``heartbeat_timeout_s``.
    """

    pytestmark = [pytest.mark.chaos]

    def _monitor(self, config) -> tuple[_Monitor, SharedClusterState]:
        import numpy as np

        buffer = np.zeros(state_words(config.num_workers), dtype=np.int64)
        state = SharedClusterState(buffer, config.num_workers, create=True)
        state.release_start()
        return _Monitor(state, config, time.perf_counter()), state

    def test_no_heartbeat_within_grace_is_not_a_failure(self):
        # The heartbeat timeout is far in the past already (10ms); only the
        # startup grace keeps the beat-less worker alive.
        monitor, _ = self._monitor(_monitor_config())
        monitor.watch(0, _FakeProcess())
        time.sleep(0.05)
        monitor._check_liveness()
        assert monitor.take_failure() is None

    def test_no_heartbeat_past_grace_is_a_failure(self):
        monitor, _ = self._monitor(_monitor_config())
        monitor.watch(0, _FakeProcess())
        time.sleep(0.2)
        monitor._check_liveness()
        failure = monitor.take_failure()
        assert failure is not None
        assert failure[0] == 0
        assert "startup grace" in failure[2]

    def test_stale_heartbeat_still_trips_the_age_check(self):
        monitor, state = self._monitor(_monitor_config())
        state.heartbeat(0)
        monitor.watch(0, _FakeProcess())
        time.sleep(0.05)  # > 10ms heartbeat timeout, < startup grace
        monitor._check_liveness()
        failure = monitor.take_failure()
        assert failure is not None
        assert "stopped heartbeating" in failure[2]

    def test_fenced_worker_is_never_declared_hung(self):
        monitor, state = self._monitor(_monitor_config())
        state.heartbeat(0)
        state.fence_worker(0)
        monitor.watch(0, _FakeProcess())
        time.sleep(0.05)
        monitor._check_liveness()
        assert monitor.take_failure() is None

    def test_nonzero_exit_skips_the_clean_exit_grace(self):
        monitor, _ = self._monitor(_monitor_config())
        monitor.watch(1, _FakeProcess(alive=False, exitcode=17))
        monitor._check_liveness()
        failure = monitor.take_failure()
        assert failure is not None
        assert "exit code 17" in failure[2]

    def test_clean_exit_gets_a_pipe_drain_grace(self):
        monitor, _ = self._monitor(_monitor_config())
        monitor.watch(1, _FakeProcess(alive=False, exitcode=0))
        monitor._check_liveness()
        assert monitor.take_failure() is None  # within the 1s drain grace


def chaos_config(**overrides) -> ClusterConfig:
    """Small stream, small rings: the source stays backpressured, so
    faults reliably land mid-stream (the source is not yet done)."""
    defaults = dict(
        scheme="PKG",
        num_workers=4,
        num_messages=20_000,
        num_keys=2_000,
        skew=1.4,
        seed=0,
        service_ns=10_000,
        mode="columnar:256",
        ring_capacity_words=2_048,
        startup_timeout_s=60.0,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def assert_stream_conserved(config: ClusterConfig, result: ClusterResult) -> None:
    """Exact-once accounting: every routed message is delivered, itemised
    as lost with a drained ring, or moved through the redirect ledgers."""
    n = config.num_workers
    for w in range(n):
        assert result.source_loads[w] == (
            result.worker_processed[w]
            + result.lost_per_worker[w]
            + result.redirected_out[w]
            - result.redirected_in[w]
        ), f"worker {w} does not reconcile"
    assert sum(result.source_loads) == config.num_messages
    assert sum(result.worker_processed) + result.messages_lost == config.num_messages
    assert result.messages_lost == sum(result.lost_per_worker)
    assert sum(result.redirected_out) == sum(result.redirected_in)


class TestSupervisedRecovery:
    pytestmark = _CHAOS

    def test_midstream_crash_recovers_with_one_respawn(self):
        # The acceptance scenario: a 4-worker PKG run, worker 2 hard-exits
        # mid-stream, the supervisor respawns it, and the run completes
        # with the stream conserved exactly and routing bit-identical to
        # the simulator.
        config = chaos_config(inject="crash@w2:2000")
        result = run_cluster(config)
        assert result.restarts == 1
        assert result.recovered
        assert not result.degraded
        assert result.worker_processed[2] >= 2000  # respawn kept delivering
        assert_stream_conserved(config, result)
        # The crashed ring's in-flight frames are the exact itemised loss.
        assert result.lost_per_worker[2] == result.messages_lost
        assert result.frames_lost > 0
        report = validate_against_simulation(config, result)
        assert report["recovered"]
        assert report["routing_match"]  # bit-exact routing through recovery
        assert report["conservation_ok"]
        assert report["ok"]
        # Recovery was priced through the migration accountant.
        assert result.migration is not None
        kinds = [event.kind for event in result.migration.events]
        assert "recover:w2" in kinds
        assert result.migration.entries_migrated > 0  # dictionary replay
        assert result.recovery_seconds > 0

    def test_restart_budget_exhausted_degrades_to_survivors(self):
        # A persistent crash burns the whole budget; the run must complete
        # on the survivors instead of raising.  The threshold is small and
        # the stream long so the replacement incarnation is guaranteed to
        # receive enough frames to trip the same fault mid-stream (a large
        # threshold can starve: the first crash's in-flight loss plus the
        # respawn-window redirects eat the slot's remaining share).
        config = chaos_config(
            num_messages=40_000, inject="crash@w1:300!", max_restarts=1
        )
        result = run_cluster(config)
        assert result.restarts == 1
        assert result.degraded
        assert result.degraded_workers == [1]
        assert result.worker_results[1].salvaged
        assert_stream_conserved(config, result)
        # The survivors genuinely absorbed the degraded slot's share.
        assert result.redirected_out[1] > 0
        assert result.messages_redirected == result.redirected_out[1]
        kinds = [event.kind for event in result.migration.events]
        assert "degrade:w1" in kinds
        assert result.migration.entries_lost > 0  # the dead replica
        report = validate_against_simulation(config, result)
        assert report["routing_match"]
        assert report["conservation_ok"]
        assert report["ok"]

    def test_hang_is_detected_and_recovered(self):
        config = chaos_config(
            num_workers=2,
            num_messages=12_000,
            inject="hang@w0:2000",
            heartbeat_timeout_s=0.4,
        )
        result = run_cluster(config)
        assert result.restarts == 1
        assert not result.degraded
        assert any("heartbeat" in line for line in result.recovery_log)
        assert_stream_conserved(config, result)

    def test_slow_fault_degrades_nothing_and_trips_no_detector(self):
        config = chaos_config(
            num_workers=2,
            num_messages=6_000,
            inject="slow@w1:3x",
            heartbeat_timeout_s=2.0,
        )
        result = run_cluster(config)
        assert not result.recovered
        assert result.restarts == 0
        assert result.messages_lost == 0
        # Delivery stays bit-exact: a slow worker is healthy.
        report = validate_against_simulation(config, result)
        assert report["delivery_exact"]
        assert report["ok"]

    def test_delta_drop_transport_fault_recovers_like_a_crash(self):
        # The dropped dictionary delta trips the replica's gap detector;
        # the worker reports the protocol error and the supervisor
        # respawns it with a full dictionary replay.
        config = chaos_config(
            num_workers=2, num_messages=12_000, inject="delta_drop@w1:1"
        )
        result = run_cluster(config)
        assert result.restarts == 1
        assert any("delta gap" in line for line in result.recovery_log)
        assert_stream_conserved(config, result)
        report = validate_against_simulation(config, result)
        assert report["ok"]


class TestRecoveryThroughTheDoorbell:
    """Waiting is a block on the slot's doorbell, before and after a respawn.

    No service time here, unlike the rest of the matrix: the workers
    outrun the source, so they *wait* — about one empty poll per frame when
    the doorbell wakes them, a small fraction of that when only the 2 ms
    backstop does (the source publishes ~20 frames per backstop).
    """

    pytestmark = _CHAOS

    def test_respawned_worker_is_woken_by_its_slots_doorbell(self):
        # The stream is long enough (~0.3 s) to outlast the respawn, so the
        # replacement pops most of worker 1's frames.  The source kept its
        # producer view — and that view's doorbell — across rebind(): a
        # replacement waiting on any other pipe would never be rung.
        config = chaos_config(
            num_workers=2,
            num_messages=300_000,
            service_ns=0,
            ring_capacity_words=1 << 14,
            inject="crash@w1:20000",
        )
        result = run_cluster(config)
        assert result.restarts == 1
        assert_stream_conserved(config, result)
        healthy, respawned = result.worker_results
        assert not respawned.salvaged and respawned.frames > 200
        # Same order, not a pinned value: the counts depend on timing.
        assert (
            respawned.empty_polls / respawned.frames
            > healthy.empty_polls / healthy.frames / 3
        ), (healthy, respawned)
        assert result.summary()["empty_polls"] == (
            healthy.empty_polls + respawned.empty_polls
        )

    def test_idle_worker_blocked_on_its_doorbell_is_not_declared_hung(self):
        # Worker 1 is slow and its ring holds a dozen frames, so the source
        # spends the run (~0.6 s) blocked on it and worker 0 starves — for
        # far longer than the heartbeat timeout, and with nobody ringing.
        # Every block ends at the backstop, which heartbeats: idle is not
        # hung.
        config = chaos_config(
            num_workers=2,
            num_messages=6_000,
            mode="columnar:64",
            ring_capacity_words=512,
            inject="slow@w1:20x",
            heartbeat_timeout_s=0.2,
        )
        result = run_cluster(config)
        assert result.elapsed_s > 2 * config.heartbeat_timeout_s
        assert not result.recovered
        assert result.restarts == 0
        idle, _ = result.worker_results
        assert idle.empty_polls > 50  # it did wait, one backstop at a time
        assert validate_against_simulation(config, result)["ok"]


class TestCrashAtEndOfStream:
    pytestmark = _CHAOS

    def test_crash_after_source_done_salvages_without_respawn(self):
        # Big rings + a slowed worker: the source finishes routing the
        # whole stream (everything buffered) long before worker 1 reaches
        # its crash point, so the failure lands after end-of-stream and
        # must take the salvage path — ledger kept, ring drained, no
        # respawn into a stream that already ended.
        config = chaos_config(
            num_workers=2,
            num_messages=8_000,
            service_ns=1_000,
            inject="slow@w1:50x,crash@w1:2000",
            ring_capacity_words=1 << 14,
        )
        result = run_cluster(config)
        assert result.restarts == 0
        assert result.worker_results[1].salvaged
        assert any("end-of-stream" in line for line in result.recovery_log)
        # The loss is exactly the crashed ring's undelivered backlog.
        assert result.messages_lost == result.lost_per_worker[1] > 0
        assert sum(result.redirected_out) == 0
        assert_stream_conserved(config, result)

    def test_strict_mode_still_raises_after_source_done(self):
        # max_restarts=0 + degrade disabled is the PR-8 contract; it must
        # hold even for failures after end-of-stream.
        from repro.exceptions import WorkerCrashError

        config = chaos_config(
            num_workers=2,
            num_messages=8_000,
            service_ns=1_000,
            inject="slow@w1:50x,crash@w1:2000",
            ring_capacity_words=1 << 14,
            max_restarts=0,
            degrade_when_exhausted=False,
        )
        # A post-EOF crash is still salvageable (the stream completed for
        # every other worker), so even strict mode completes here — the
        # salvage path does not consume a restart.
        result = run_cluster(config)
        assert result.worker_results[1].salvaged
        assert result.restarts == 0
