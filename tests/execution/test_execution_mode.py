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
            DESCRIPTOR,
            build_topology,
            make_posts,
        )

        config = DESCRIPTOR.config("tiny")
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
    """Neither ``mode`` nor the scale tables may invalidate cached records.

    The fingerprint hashes every config field except ``mode``.  The scenarios
    and fig1 literals were computed on the commit *before* the ExecutionMode
    redesign, the other cells on the last commit whose scales were config
    classmethods: every (experiment, scale) cell is pinned, so they also
    prove each scale row equal to its classmethod field for field.  If one
    of these assertions fails, every user's results store silently becomes
    a cache miss.
    """

    PINNED = {
        ("fig1", "tiny"): (
            "8a482dd32b0c424b69a6db07686a17cf3417f904866676a91f2580a603d04933"
        ),
        ("fig1", "quick"): (
            "83e3e474bd89217b8e040e56920c72bfb2625ef62b7b273858522ab2b0b09503"
        ),
        ("fig1", "paper"): (
            "7b4f087ebe196e843a32d3bc60901deec7f5adc1ca6e936b1687fd1c7e51ef58"
        ),
        ("fig3", "tiny"): (
            "3c6cdffc94cb8f7446855a8bcd9e2d0c129b3e5afaf498154904bb33dc809f0f"
        ),
        ("fig3", "quick"): (
            "884dd92b964aaeb59789382c019488c043fe49107484d1231f3534ae1aa1e87d"
        ),
        ("fig3", "paper"): (
            "33b8dce0b4fa636585669f16dafa8fe7002fbc51ed26811ffbd532b329482128"
        ),
        ("fig4", "tiny"): (
            "93175912419bdd7c4988ecad3778d7b9e68ffcd4f5ec51d8b724fb8184b4dff3"
        ),
        ("fig4", "quick"): (
            "958c8ae5599ac38ff9172ab697822e1b4bcb7c58a5705f785873fa5a952c90c3"
        ),
        ("fig4", "paper"): (
            "c7c39ef75f0c22af0440a7d3140b9994e0ee95e8294ce40ed60b2b7914e326a4"
        ),
        ("fig5", "tiny"): (
            "4e2ce51be0f972c228bb829609458e61330d5f09e1e890994e6b166e7ff9243a"
        ),
        ("fig5", "quick"): (
            "544cc8947e8807022fd9ab76af6d424388463ef246b181d1d2842a3a8502e669"
        ),
        ("fig5", "paper"): (
            "364c5bc1eacb35ff9f45c1f339e7c9e72f231ab0ddbee753034c48facf30db38"
        ),
        ("fig6", "tiny"): (
            "d787ad57274931e6dbaf35910858da7b549d49b3eb10eddd71232a098bb81092"
        ),
        ("fig6", "quick"): (
            "4d0808d1c8d45ff0f5e0ca15c75f368b39567c9078ddc6108e9a28f0c9b84e85"
        ),
        ("fig6", "paper"): (
            "0f51a20cfffaac5aee752fe3259ac7e70efad8232052863bd69a10af55f175e6"
        ),
        ("fig7", "tiny"): (
            "90314df0d30580afbc5666da628a40669e47f42a2a0988d728cdf0335dad30d0"
        ),
        ("fig7", "quick"): (
            "acf1a69b674d209180b0f8cd16acc7338774e9246ecdad00d4bfff8a28f3263c"
        ),
        ("fig7", "paper"): (
            "632afe5d0f110d1c9cd662b107bf7bd23326e0a5f2df54e1455090d05da2b898"
        ),
        ("fig8", "tiny"): (
            "9ad5368bb594f312b6c3311a9b5e48967c0ec13287ac3a6ab4001ef56a833d80"
        ),
        ("fig8", "quick"): (
            "fd2072bfab939e5dad255fa8cf00f58e8260918df6071a5b04c2ad2fc2fcb2a1"
        ),
        ("fig8", "paper"): (
            "8e5c503772e243efaaa042b1a7625afc4f939958ad91cd6778ba3beafafe5397"
        ),
        ("fig9", "tiny"): (
            "5be33c78c4cea3132d47bbd436dd6fd3d468a1d0d135f1b963cbabb90811d311"
        ),
        ("fig9", "quick"): (
            "ae05b4a5b6f1548b3b7471ab59cfe7e5ba69522f5af9b0225dff7e4b028cf5fe"
        ),
        ("fig9", "paper"): (
            "9d04fd3fbc9358396563487900b118c2b656cc7a68a6ad45dab7c433c4121158"
        ),
        ("fig10", "tiny"): (
            "d67aaec1a460352d924a9494dd7c13d5becea04c274d386a19ac66b93e9713d5"
        ),
        ("fig10", "quick"): (
            "3b39d5b23e6ee2dd7db205bf15b654234e9643abe61218ec927b72117e3726a4"
        ),
        ("fig10", "paper"): (
            "b40c12d7f5b714501a9f4d07a076ad65c51b3a81d861a91a4d02921870ff0df4"
        ),
        ("fig11", "tiny"): (
            "ffc95ca66d6ebd6c177f70d384268dbe6bd89eec519fa779289d0e4c99f19403"
        ),
        ("fig11", "quick"): (
            "a81e2f0ee54a588ea4597e584180ea7cfc4e2cc37a0c6eca1593f6346fa10ae5"
        ),
        ("fig11", "paper"): (
            "6ff7478f8246c15471a08a1e8b8520bbca565f1beec84301a8905e9d716c06f6"
        ),
        ("fig12", "tiny"): (
            "a825c194d755987fbec4a56b1b2254916336e8da883e06cf67315fbdb1fff478"
        ),
        ("fig12", "quick"): (
            "feb53b0de9cf90397723588867df32ca18fe7e4f0a7b1059ea6460d98a6e5283"
        ),
        ("fig12", "paper"): (
            "173ec63ad6673cf9b996f01e842d047fa0dcbfc74bc05ee15ebbf5e0bb54a55f"
        ),
        ("fig13", "tiny"): (
            "33e9decf6c807a2e538cb757f6a09b54a589c3c9028e89da0033192f295f2ac1"
        ),
        ("fig13", "quick"): (
            "c98efcac3acf1babcfce204b30f0a624de564c63450b783aad410cc888b075aa"
        ),
        ("fig13", "paper"): (
            "9214ebc3be85a87e8879a691f8b8786db509a732298c5a3db30120f090f3069d"
        ),
        ("fig14", "tiny"): (
            "550a341e5e4fbae361e5b1a9bb7fde0524ecd0640485ef69f3b9ff0e1de2f71f"
        ),
        ("fig14", "quick"): (
            "bf714d38d41d52d632c9259ba9911ab826fd1213897f0f6307d1ded89910a8d3"
        ),
        ("fig14", "paper"): (
            "f6781aa7f1eea3470964c745495ac606ee98af268d13f0ba88935aecfb6993ae"
        ),
        ("fig15", "tiny"): (
            "1f534692f953776553070b5ff892175c657b164eaa96362d6b7a731ea431daf3"
        ),
        ("fig15", "quick"): (
            "b869da81d9c9217ba96b11c7e80bf45fc2b13427359537486639ecd812f5c54f"
        ),
        ("fig15", "paper"): (
            "37960ee81b9e0ee4ad0d9df14a42a75d3702e1c9f1f9ab13562250407e12ad5d"
        ),
        ("fig16", "tiny"): (
            "7eb01eeafdddf05f2f925e990341672ad707dc447b9324c4ea07b5a9893f3157"
        ),
        ("fig16", "quick"): (
            "a94cf54b5ae9d7565690d2b5bb6b4b8500453b585243d2c91c2703bbe475a561"
        ),
        ("fig16", "paper"): (
            "c0989d9f0d720561d04a1fe78604f6d3dd4a5af6117e5a334168f21cd9c5d413"
        ),
        ("fig17", "tiny"): (
            "296a4b1d6f31be8b08109b492a56a38d8902949d017ee22ce38e6cef98e6f3b0"
        ),
        ("fig17", "quick"): (
            "2d8fd0370b1ffbb00fff00f80c289007890a74830d19d99563156bc9ad1b0734"
        ),
        ("fig17", "paper"): (
            "b6ee7cf710e1e7e07634b69ab1b425ac88766aefe052e1380a714dc9a3c17d5b"
        ),
        ("fig18", "tiny"): (
            "8f7506ff1331552d4d0d2c55d6d99d5c0c19f1d5b06bf2f0b72697a3a685f934"
        ),
        ("fig18", "quick"): (
            "ba6e82ac39fcdc3646738be9143a079fd7060789e70140cf31c9aae9ad6cc277"
        ),
        ("fig18", "paper"): (
            "cc3763730749d2214fd17005a17a7c0b88df4ecb83735fe27db0edcecf17b60c"
        ),
        ("scenarios", "tiny"): (
            "a1c0b75d94b82e2f2333e297cdf666f064d887efa61199a14f887f02924710b0"
        ),
        ("scenarios", "quick"): (
            "cd9efe34f7e82ab3946685f03514c13f398ea94a46635f3962a572e89fb5e75b"
        ),
        ("scenarios", "paper"): (
            "bae912e127da773e7e4493ccb6e987bf0c258180a3374007060f7e2a1133fd1e"
        ),
        ("table1", "tiny"): (
            "f26cead29f62a3c6e542c3edac53c0429cf96393d19b9a04620ac21e36adbf72"
        ),
        ("table1", "quick"): (
            "0ea681817a78409fe375a98ac2fe36bd3dd2afcb98f38ad549239f575658bec5"
        ),
        ("table1", "paper"): (
            "90aa404b60452554192f3ffc1ff3205c1b5dfa3dde0f6bda2006762be6265b60"
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

        descriptor = get_experiment(experiment_id)
        config = descriptor.config_dict(descriptor.config(scale))
        fingerprint = config_fingerprint(experiment_id, scale, config)
        assert fingerprint == self.PINNED[(experiment_id, scale)]

    def test_mode_override_does_not_change_the_fingerprint(self):
        from repro.experiments.registry import get_experiment
        from repro.suite.store import config_fingerprint

        descriptor = get_experiment("fig1")
        plain = descriptor.config_dict(descriptor.configure("tiny"))
        overridden = descriptor.config_dict(
            descriptor.configure("tiny", mode="columnar:4096")
        )
        assert config_fingerprint("fig1", "tiny", plain) == config_fingerprint(
            "fig1", "tiny", overridden
        )
