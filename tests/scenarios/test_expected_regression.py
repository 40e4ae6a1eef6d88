"""The expected-assertion regression suite.

Every cataloged scenario is simulated at the tiny scale under each catalog
scheme and checked against its declared ``expected:`` bounds — the
``expected:`` blocks *are* the assertions, collected by pytest.  A failure
here means a routing change moved a scenario past its calibrated
imbalance/replication/p99 envelope, exactly the regression the catalog
exists to catch.

The CI ``scenario-regression`` job runs this module on every push.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig18_adaptive, scenarios_experiment
from repro.scenarios import CATALOG, assert_result, build_workload, check_result
from repro.simulation.runner import run_simulation

#: The scenario sweep's tiny scale, read from its descriptor so CI and the
#: suite agree.
TINY = scenarios_experiment.DESCRIPTOR.config("tiny")
NUM_MESSAGES = TINY.num_messages
NUM_KEYS = TINY.num_keys
NUM_WORKERS = TINY.num_workers

SCHEMES = ("PKG", "D-C", "W-C", "AD")

#: AD's controller clocks are per-source message counts; at the tiny scale
#: (4k messages per source) the defaults would never fire, so the adaptive
#: runs use fig18's tiny knobs and actually switch mid-stream.
FIG18_TINY = fig18_adaptive.DESCRIPTOR.config("tiny")
AD_OPTIONS = {
    "check_interval": FIG18_TINY.check_interval,
    "policy": f"dwell={FIG18_TINY.min_dwell}",
}


def _run(spec, scheme):
    workload = build_workload(spec, num_messages=NUM_MESSAGES, num_keys=NUM_KEYS)
    options = AD_OPTIONS if scheme == "AD" else None
    return run_simulation(
        workload, scheme=scheme, num_workers=NUM_WORKERS, scheme_options=options
    )


class TestExpectedBounds:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", list(CATALOG))
    def test_scenario_stays_within_declared_bounds(self, name, scheme):
        spec = CATALOG[name]
        result = _run(spec, scheme)
        violations = check_result(spec, result, scheme=scheme)
        assert violations == [], (
            f"scenario {name!r} under {scheme}: "
            f"imbalance={result.final_imbalance:.4f} "
            f"replication={result.replication_factor:.3f} "
            f"p99={result.p99_load_factor:.3f}; " + "; ".join(violations)
        )

    def test_assert_result_raises_on_violation(self):
        spec = CATALOG["single_key_flood"]
        result = _run(spec, "KG")  # KG cannot split the flood key at all
        with pytest.raises(Exception, match="single_key_flood"):
            assert_result(spec, result, scheme="KG")


class TestSameSeedReruns:
    @pytest.mark.parametrize("name", list(CATALOG))
    def test_rerun_is_bit_identical(self, name):
        first = _run(CATALOG[name], "D-C")
        second = _run(CATALOG[name], "D-C")
        assert first.worker_loads == second.worker_loads
        assert first.final_imbalance == second.final_imbalance
        assert first.memory_entries == second.memory_entries
        assert first.distinct_key_count == second.distinct_key_count

    def test_different_catalog_seeds_produce_different_streams(self):
        # flash_crowd (seed 1601) and bursty_flash_crowd (seed 1607) share
        # the truth pattern but not the seed — their streams must differ.
        flash = build_workload("flash_crowd", 5_000, 500)
        bursty = build_workload("bursty_flash_crowd", 5_000, 500)
        assert list(flash.keys()) != list(bursty.keys())
