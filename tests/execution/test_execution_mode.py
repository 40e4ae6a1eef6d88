"""Tests of the unified ExecutionMode API.

Pins the contracts of the two-role design:

1. there are two kinds, ``scalar`` (the oracle) and ``columnar:N`` (the id
   kernel); ``batched[:N]`` is still *parsed*, as a spelling of
   ``columnar[:N]``, so no knob selects a routing path any more;
2. every entry point (``run_simulation``, ``route_stream``,
   ``run_topology``) accepts ``mode=`` as an instance or a spec string and
   returns byte-identical results for every mode;
3. adding ``mode`` to experiment configs did **not** invalidate the suite
   store's content-addressed cache (fingerprints pinned as literals from
   before the redesign).
"""

from __future__ import annotations

import pytest

from repro import ExecutionMode
from repro.exceptions import ConfigurationError
from repro.execution import DEFAULT_BATCH_SIZE
from repro.experiments.common import execution_mode_of, route_stream
from repro.partitioning.registry import available_schemes, create_partitioner
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload


def workload() -> ZipfWorkload:
    return ZipfWorkload(exponent=1.4, num_keys=800, num_messages=6_000, seed=5)


class TestExecutionModeValue:
    def test_two_kinds(self):
        assert ExecutionMode.KINDS == ("scalar", "columnar")

    def test_factories(self):
        assert ExecutionMode.scalar() == ExecutionMode("scalar", 1)
        assert ExecutionMode.columnar(64) == ExecutionMode("columnar", 64)
        assert ExecutionMode.columnar().batch_size == DEFAULT_BATCH_SIZE

    def test_parse_specs(self):
        assert ExecutionMode.parse("scalar") == ExecutionMode.scalar()
        assert ExecutionMode.parse("columnar") == ExecutionMode.columnar()
        assert ExecutionMode.parse("columnar:128") == ExecutionMode.columnar(128)

    def test_batched_is_a_spelling_of_columnar(self):
        assert ExecutionMode.parse("batched:1024") == ExecutionMode.columnar(1024)
        assert ExecutionMode.parse("batched") == ExecutionMode.columnar()
        assert ExecutionMode.coerce(" Batched:7 ") == ExecutionMode.columnar(7)
        # Normalised on the way in: the spec names the kind that runs, and
        # round-trips.
        mode = ExecutionMode.parse("batched:1024")
        assert mode.spec == "columnar:1024"
        assert ExecutionMode.parse(mode.spec) == mode
        # Only the parser knows the old name; it is not a kind.
        with pytest.raises(ConfigurationError):
            ExecutionMode("batched", 64)

    def test_spec_roundtrip(self):
        for mode in (ExecutionMode.scalar(), ExecutionMode.columnar(4096)):
            assert ExecutionMode.parse(mode.spec) == mode

    def test_coerce_accepts_instances_strings_and_none(self):
        mode = ExecutionMode.columnar(32)
        assert ExecutionMode.coerce(mode) is mode
        assert ExecutionMode.coerce("columnar:32") == mode
        # None is every entry point's default.
        assert ExecutionMode.coerce(None) == ExecutionMode.columnar(DEFAULT_BATCH_SIZE)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionMode.parse("vectorised")
        with pytest.raises(ConfigurationError):
            ExecutionMode.parse("batched:0")
        with pytest.raises(ConfigurationError):
            ExecutionMode("scalar", 8)  # scalar implies batch_size 1
        with pytest.raises(ConfigurationError):
            ExecutionMode.coerce(123)

    def test_parse_errors_list_the_valid_specs(self):
        # A CLI typo should show the user the full grammar, not just reject.
        for bad in ("vectorised", "", ":128", "batched:many", "scalar:8"):
            with pytest.raises(ConfigurationError, match=r"scalar \| columnar"):
                ExecutionMode.parse(bad)
        with pytest.raises(ConfigurationError, match=r"scalar \| columnar"):
            ExecutionMode.parse(None)  # type: ignore[arg-type]

    def test_parse_errors_name_the_offending_part(self):
        with pytest.raises(ConfigurationError, match="'vectorised'"):
            ExecutionMode.parse("vectorised:64")
        with pytest.raises(ConfigurationError, match="must be an integer"):
            ExecutionMode.parse("columnar:big")
        with pytest.raises(ConfigurationError, match="takes no batch size"):
            ExecutionMode.parse("scalar:4")
        with pytest.raises(ConfigurationError, match="must be a string"):
            ExecutionMode.parse(1024)  # type: ignore[arg-type]

    def test_properties(self):
        assert ExecutionMode.scalar().is_scalar
        assert not ExecutionMode.scalar().is_columnar
        assert ExecutionMode.columnar().is_columnar
        assert ExecutionMode.columnar(64).spec == "columnar:64"


class TestEntryPointEquivalence:
    def test_run_simulation_is_byte_identical_across_modes(self):
        def run(mode):
            return run_simulation(
                workload(), scheme="PKG", num_workers=8, mode=mode
            )

        baseline = run(ExecutionMode.columnar(128))
        for mode in ("batched:128", "columnar:77", "scalar", None):
            other = run(mode)
            assert other.worker_loads == baseline.worker_loads
            assert other.final_imbalance == baseline.final_imbalance

    def test_removed_keywords_are_gone(self):
        with pytest.raises(TypeError):
            run_simulation(
                workload(), scheme="PKG", num_workers=8, batch_size=64
            )

    def test_route_stream_is_byte_identical_across_modes(self):
        def routed(mode):
            return route_stream(
                create_partitioner("D-C", num_workers=8, seed=3), workload(), mode=mode
            )

        assert routed("columnar:64") == routed("batched:64") == routed("scalar")

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_route_stream_returns_python_ints(self, scheme):
        # The id kernel answers in int64 arrays; a missed conversion would
        # put numpy scalars into experiment rows and JSON exports.
        options = {"GREEDY-D": {"num_choices": 3}, "FIXED-D": {"num_choices": 3}}
        routed = route_stream(
            create_partitioner(scheme, num_workers=8, seed=3, **options.get(scheme, {})),
            workload(),
            mode="columnar:64",
        )
        assert type(routed) is list and routed
        assert all(type(worker) is int for worker in routed)

    def test_route_stream_scalar_mode_matches_scalar_loop(self):
        keys = list(workload())
        partitioner = create_partitioner("PKG", num_workers=8, seed=3)
        expected = [partitioner.route(key) for key in keys]
        routed = route_stream(
            create_partitioner("PKG", num_workers=8, seed=3),
            keys,
            mode=ExecutionMode.scalar(),
        )
        assert routed == expected

    def test_run_topology_is_byte_identical_across_modes(self):
        from repro.dataflow.runtime import run_topology
        from repro.experiments.fig17_topology_throughput import (
            Fig17Config,
            build_topology,
            make_posts,
        )

        config = Fig17Config.tiny()
        posts = make_posts(config)

        def loads(mode):
            result = run_topology(
                build_topology(config, "PKG"), posts, seed=0,
                num_external_sources=config.num_external_sources,
                mode=mode,
            )
            return result.vertex_metrics("aggregate").instance_loads

        baseline = loads(ExecutionMode.columnar(256))
        assert loads("batched:256") == baseline
        assert loads("scalar") == baseline


class TestConfigAdoption:
    def test_execution_mode_of_reads_the_mode_field(self):
        class Config:
            mode = "columnar:32"

        assert execution_mode_of(Config()) == ExecutionMode.columnar(32)

    def test_execution_mode_of_defaults_to_columnar(self):
        class Bare:
            pass

        assert execution_mode_of(Bare()) == ExecutionMode.columnar()

    def test_simulation_config_resolves_mode(self):
        from repro.simulation.config import SimulationConfig

        config = SimulationConfig(
            scheme="PKG", num_workers=4, mode="columnar:64"
        )
        assert config.mode == ExecutionMode.columnar(64)
        # ``mode`` is the only execution field, always normalised.
        default = SimulationConfig(scheme="PKG", num_workers=4)
        assert default.mode == ExecutionMode.columnar()
        assert not hasattr(default, "batch_size")
        assert not hasattr(default, "columnar")


class TestFingerprintStability:
    """Adding ``mode`` to configs must not invalidate cached records.

    The literals were computed on the commit *before* the ExecutionMode
    redesign; if one of these assertions fails, every user's results store
    silently becomes a cache miss.
    """

    PINNED = {
        ("scenarios", "tiny"): (
            "a1c0b75d94b82e2f2333e297cdf666f064d887efa61199a14f887f02924710b0"
        ),
        ("scenarios", "quick"): (
            "cd9efe34f7e82ab3946685f03514c13f398ea94a46635f3962a572e89fb5e75b"
        ),
        ("fig1", "tiny"): (
            "8a482dd32b0c424b69a6db07686a17cf3417f904866676a91f2580a603d04933"
        ),
        ("fig1", "quick"): (
            "83e3e474bd89217b8e040e56920c72bfb2625ef62b7b273858522ab2b0b09503"
        ),
    }

    @pytest.mark.parametrize(
        "experiment_id,scale",
        sorted(PINNED),
        ids=lambda value: str(value),
    )
    def test_fingerprints_unchanged_since_before_mode_field(
        self, experiment_id, scale
    ):
        from repro.experiments.registry import get_experiment
        from repro.suite.store import config_fingerprint

        descriptor = get_experiment(experiment_id).descriptor
        config = descriptor.config_dict(descriptor.config(scale))
        fingerprint = config_fingerprint(experiment_id, scale, config)
        assert fingerprint == self.PINNED[(experiment_id, scale)]

    def test_mode_override_does_not_change_the_fingerprint(self):
        from repro.experiments.registry import get_experiment
        from repro.suite.store import config_fingerprint

        descriptor = get_experiment("fig1").descriptor
        plain = descriptor.config_dict(descriptor.configure("tiny"))
        overridden = descriptor.config_dict(
            descriptor.configure("tiny", mode="columnar:4096")
        )
        assert config_fingerprint("fig1", "tiny", plain) == config_fingerprint(
            "fig1", "tiny", overridden
        )
