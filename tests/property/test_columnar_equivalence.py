"""Columnar routing must be byte-identical to scalar routing, end to end.

The columnar pipeline (``KeyDictionary`` interning at the source,
``route_batch_columnar`` on id arrays, id-space operator folds) is pure
optimisation: for every scheme, every workload, every chunking — and with
rescale plans firing mid-stream — the worker sequence, load vectors, state
contents and migration costs must equal the scalar reference bit for bit.
These tests pin that contract at each layer: partitioner, simulation
engine, ``route_stream`` and the dataflow runtime.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import route_stream
from repro.partitioning.registry import available_schemes, create_partitioner
from repro.simulation.runner import run_simulation
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.drift import DriftingZipfWorkload
from repro.workloads.synthetic import WikipediaLikeWorkload
from repro.workloads.zipf_stream import ZipfWorkload

#: Constructor extras for schemes whose signature requires them.
SCHEME_OPTIONS: dict[str, dict[str, int]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
}


def _make(scheme: str, num_workers: int, seed: int):
    return create_partitioner(
        scheme, num_workers=num_workers, seed=seed, **SCHEME_OPTIONS.get(scheme, {})
    )


#: Keys that compare equal across types (``1 == True == 1.0``) but that the
#: hash family folds apart (``_key_to_int`` keeps bool, int and str distinct):
#: the dictionary must give each its own id, or columnar KG/PKG route such a
#: stream differently from the scalar path.
MIXED_TYPE_KEYS = [
    1, True, 1.0, 0, False, 0.0, -1, -1.0, "1", b"1", (1,), (True,), 2, 2.0, "", 7,
]


def _streams(name: str, seed: int) -> list:
    if name == "mixed-types":
        ranks = ZipfWorkload(1.1, len(MIXED_TYPE_KEYS), 12_000, seed=seed)
        return [MIXED_TYPE_KEYS[rank % len(MIXED_TYPE_KEYS)] for rank in ranks]
    if name == "zipf":
        return list(ZipfWorkload(1.4, 3_000, 12_000, seed=seed))
    if name == "drift":
        return list(
            DriftingZipfWorkload(1.4, 1_000, 12_000, num_epochs=5, seed=seed)
        )
    return list(WikipediaLikeWorkload(12_000, seed=seed).keys())


class TestColumnarMatchesScalar:
    @pytest.mark.parametrize("scheme", available_schemes())
    @pytest.mark.parametrize("stream", ["zipf", "drift", "wikipedia", "mixed-types"])
    def test_worker_sequence_and_loads_identical(self, scheme, stream):
        keys = _streams(stream, seed=7)
        scalar = _make(scheme, num_workers=40, seed=7)
        columnar = _make(scheme, num_workers=40, seed=7)

        expected = [scalar.route(key) for key in keys]
        dictionary = KeyDictionary()
        actual: list[int] = []
        flags: list[bool] = []
        chunk = 997  # deliberately not a divisor of the stream length
        for start in range(0, len(keys), chunk):
            ids = dictionary.intern_keys(keys[start : start + chunk])
            actual.extend(
                columnar.route_batch_columnar(
                    ColumnarBatch(ids, dictionary, start), head_flags=flags
                )
            )

        assert actual == expected
        assert columnar.local_loads == scalar.local_loads
        assert columnar.messages_routed == scalar.messages_routed == len(keys)
        assert len(flags) == len(keys)

    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "W-C", "RR", "FIXED-D"])
    def test_head_flags_match_decision_path(self, scheme):
        keys = _streams("zipf", seed=3)[:6_000]
        decisions = _make(scheme, num_workers=20, seed=5)
        columnar = _make(scheme, num_workers=20, seed=5)

        expected = [decisions.route_with_decision(key) for key in keys]
        dictionary = KeyDictionary()
        flags: list[bool] = []
        actual = columnar.route_batch_columnar(
            ColumnarBatch(dictionary.intern_keys(keys), dictionary),
            head_flags=flags,
        )
        assert actual == [decision.worker for decision in expected]
        assert flags == [decision.is_head for decision in expected]

    @given(
        scheme=st.sampled_from(["KG", "SG", "PKG", "D-C", "W-C", "RR", "CH"]),
        num_workers=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
        stream=st.lists(st.integers(min_value=0, max_value=60), max_size=250),
        chunk=st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_streams_and_chunkings(
        self, scheme, num_workers, seed, stream, chunk
    ):
        scalar = _make(scheme, num_workers=num_workers, seed=seed)
        columnar = _make(scheme, num_workers=num_workers, seed=seed)
        expected = [scalar.route(key) for key in stream]
        dictionary = KeyDictionary()
        actual: list[int] = []
        for start in range(0, len(stream), chunk):
            ids = dictionary.intern_keys(stream[start : start + chunk])
            actual.extend(
                columnar.route_batch_columnar(ColumnarBatch(ids, dictionary, start))
            )
        assert actual == expected
        assert columnar.local_loads == scalar.local_loads


class TestRouteStreamColumnar:
    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "CH"])
    def test_matches_scalar_and_batched(self, scheme):
        def run(**kwargs):
            return route_stream(
                _make(scheme, num_workers=24, seed=9),
                ZipfWorkload(1.4, 2_000, 15_000, seed=9),
                **kwargs,
            )

        scalar = run(mode="scalar")
        batched = run(mode="batched:768")
        columnar = run(mode="columnar:509")
        assert scalar == batched == columnar

    def test_plain_iterable_fallback(self):
        keys = [f"k{i % 101}" for i in range(5_000)]
        expected = route_stream(_make("PKG", 12, 0), list(keys), mode="scalar")
        actual = route_stream(_make("PKG", 12, 0), iter(keys), mode="columnar:512")
        assert actual == expected


def _engine_snapshot(result):
    return (
        result.worker_loads,
        result.final_imbalance,
        result.head_loads,
        result.tail_loads,
        result.memory_entries,
        result.head_key_count,
        result.time_series.values if result.time_series else None,
        result.migration.to_dict() if result.migration else None,
    )


class TestEngineColumnarInvariance:
    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "W-C", "SG"])
    def test_simulation_results_independent_of_representation(self, scheme):
        def run(mode: str):
            return run_simulation(
                ZipfWorkload(1.4, 2_000, 30_000, seed=2),
                scheme=scheme,
                num_workers=25,
                num_sources=5,
                seed=4,
                track_interval=500,
                track_head_tail=True,
                mode=mode,
            )

        scalar = run("scalar")
        columnar = run("columnar:613")
        assert _engine_snapshot(columnar) == _engine_snapshot(scalar)

    @pytest.mark.parametrize("policy", ["rehash", "migrate", "remap"])
    @pytest.mark.parametrize("scheme", ["PKG", "D-C", "CH"])
    def test_rescale_plans_fire_identically_mid_stream(self, policy, scheme):
        def run(mode: str):
            return run_simulation(
                ZipfWorkload(1.4, 2_000, 30_000, seed=2),
                scheme=scheme,
                num_workers=25,
                num_sources=5,
                track_interval=500,
                mode=mode,
                rescale_plan="join@5000,leave@12000,fail@21000",
                rescale_policy=policy,
                migration_window=1500,
            )

        scalar = run("scalar")
        columnar = run("columnar:613")
        assert _engine_snapshot(columnar) == _engine_snapshot(scalar)

    def test_string_keyed_workload(self):
        def run(mode: str):
            return run_simulation(
                WikipediaLikeWorkload(15_000, seed=3),
                scheme="D-C",
                num_workers=20,
                mode=mode,
            )

        assert _engine_snapshot(run("columnar:701")) == _engine_snapshot(run("scalar"))


class TestDataflowColumnarInvariance:
    @staticmethod
    def _wordcount():
        from repro.dataflow.graph import Topology
        from repro.operators.aggregations import CountAggregator

        topology = Topology("wordcount")
        topology.add_vertex("count", CountAggregator, parallelism=8)
        topology.set_source("count", scheme="PKG")
        return topology

    @staticmethod
    def _pipeline():
        from repro.dataflow.graph import Topology
        from repro.operators.aggregations import CountAggregator
        from repro.operators.base import StatelessOperator
        from repro.types import Message

        topology = Topology("pipeline")
        topology.add_vertex(
            "tag",
            lambda i: StatelessOperator.from_function(
                lambda m: [Message(m.timestamp, str(m.key)[-1], 1)]
            ),
            parallelism=4,
        )
        topology.add_vertex("count", CountAggregator, parallelism=6)
        topology.set_source("tag", scheme="SG")
        topology.add_edge("tag", "count", scheme="D-C")
        return topology

    @staticmethod
    def _snapshot(result):
        snapshot = {"ingested": result.messages_ingested}
        for name, metrics in result.metrics.items():
            snapshot[name] = (metrics.messages, metrics.instance_loads)
            states = []
            for instance in result.instances[name]:
                if hasattr(instance, "partial_state"):
                    # item order matters: columnar folds must insert new
                    # keys exactly where the scalar loop would.
                    states.append(list(instance.partial_state().items()))
            snapshot[f"{name}:state"] = states
        return snapshot

    @pytest.mark.parametrize("shape", ["wordcount", "pipeline"])
    def test_topology_results_independent_of_representation(self, shape):
        from repro.dataflow.runtime import run_topology

        build = self._wordcount if shape == "wordcount" else self._pipeline
        workload = lambda: ZipfWorkload(1.4, 2_000, 20_000, seed=4)
        scalar = run_topology(
            build(), workload(), mode="scalar", num_external_sources=3
        )
        columnar = run_topology(
            build(), workload(), mode="columnar:509", num_external_sources=3
        )
        assert self._snapshot(columnar) == self._snapshot(scalar)
