"""Scenario streams are representation-invariant for every scheme.

Cataloged scenarios must produce byte-identical simulation results whether
the stream is consumed scalar or in columnar chunks of any length —
including when a rescale plan fires mid-stream.  This pins the scenario
workload into the same equivalence contract the Zipf/drift/synthetic
workloads already satisfy (``test_columnar_equivalence.py``).
"""

from __future__ import annotations

import pytest

from repro.partitioning.registry import available_schemes
from repro.scenarios import CATALOG, build_workload
from repro.simulation.runner import run_simulation

#: Constructor extras for schemes whose signature requires them.  AD's
#: per-source clocks are tuned so it actually switches schemes mid-stream
#: at this scale (2 000 messages per source) — the equivalence must hold
#: *through* the switches, not only in the never-switching case.
SCHEME_OPTIONS: dict[str, dict[str, object]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
    "AD": {"check_interval": 250, "policy": "dwell=500"},
}

NUM_MESSAGES = 6_000
NUM_KEYS = 400


def _snapshot(result):
    return (
        result.worker_loads,
        result.final_imbalance,
        result.memory_entries,
        result.head_key_count,
        result.distinct_key_count,
        result.migration.to_dict() if result.migration else None,
        result.switch_log,
    )


def _run(name, scheme, *, batch_size, columnar, rescale_plan=None):
    # ``columnar=False`` legs use the ``batched:N`` spelling, which parses to
    # the same id kernel — the triple is scalar vs two chunk lengths.
    if batch_size == 1:
        mode = "scalar"
    else:
        mode = f"{'columnar' if columnar else 'batched'}:{batch_size}"
    workload = build_workload(name, NUM_MESSAGES, NUM_KEYS)
    return run_simulation(
        workload,
        scheme=scheme,
        num_workers=12,
        num_sources=3,
        scheme_options=SCHEME_OPTIONS.get(scheme, {}),
        mode=mode,
        rescale_plan=rescale_plan,
    )


class TestScenarioRepresentationInvariance:
    @pytest.mark.parametrize("scheme", available_schemes())
    @pytest.mark.parametrize("name", list(CATALOG))
    def test_scalar_batched_columnar_identical(self, name, scheme):
        scalar = _run(name, scheme, batch_size=1, columnar=False)
        batched = _run(name, scheme, batch_size=389, columnar=False)
        columnar = _run(name, scheme, batch_size=613, columnar=True)
        assert _snapshot(batched) == _snapshot(scalar)
        assert _snapshot(columnar) == _snapshot(scalar)

    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "W-C", "CH", "AD"])
    @pytest.mark.parametrize(
        "name", ["flash_crowd", "single_key_flood", "drift_mixture"]
    )
    def test_rescale_plans_fire_identically(self, name, scheme):
        plan = "join@1500,leave@3200,fail@4800"
        scalar = _run(name, scheme, batch_size=1, columnar=False, rescale_plan=plan)
        batched = _run(
            name, scheme, batch_size=389, columnar=False, rescale_plan=plan
        )
        columnar = _run(
            name, scheme, batch_size=613, columnar=True, rescale_plan=plan
        )
        assert _snapshot(batched) == _snapshot(scalar)
        assert _snapshot(columnar) == _snapshot(scalar)


class TestAdaptiveSwitchesAreRepresentationInvariant:
    """The AD rows above must not pass vacuously: the adaptive scheme has
    to *actually switch* mid-stream at this scale, and the resulting switch
    log (positions, scheme transitions, move costs) must be identical
    across the scalar, batched and columnar paths."""

    @pytest.mark.parametrize("name", ["hot_key_churn", "drift_mixture"])
    def test_ad_switches_and_the_log_matches_across_modes(self, name):
        scalar = _run(name, "AD", batch_size=1, columnar=False)
        batched = _run(name, "AD", batch_size=389, columnar=False)
        columnar = _run(name, "AD", batch_size=613, columnar=True)
        assert scalar.switch_log, (
            "AD never switched mid-stream — the adaptive equivalence "
            "checks would be vacuous; retune its clocks for this scale"
        )
        assert batched.switch_log == scalar.switch_log
        assert columnar.switch_log == scalar.switch_log

    def test_ad_switches_survive_a_rescale_plan(self):
        plan = "join@1500,leave@3200,fail@4800"
        scalar = _run(
            "drift_mixture", "AD", batch_size=1, columnar=False,
            rescale_plan=plan,
        )
        columnar = _run(
            "drift_mixture", "AD", batch_size=613, columnar=True,
            rescale_plan=plan,
        )
        assert scalar.migration is not None
        assert scalar.switch_log == columnar.switch_log
        assert _snapshot(scalar) == _snapshot(columnar)
