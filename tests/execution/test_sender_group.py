"""The one sender group equals per-message dealing, for every scheme.

``SenderGroup.route_span`` deals a span of interned key ids over the
senders by global index, routes each share through the id kernel and
scatters the decisions back into stream order; ``spans`` cuts the stream at
the chunker's granularity and at caller-supplied boundaries.  Whatever the
chunk sizes and wherever the boundaries fall — spans shorter than the
number of senders, boundaries that are not a multiple of it — the
``(worker, is_head)`` stream, the load vectors and the switch log must
equal the scalar deal: message ``i`` through ``route_with_decision`` of
sender ``i % num_senders``, with the same rescale applied before the first
message at or past each boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.partitioner import AdaptivePartitioner
from repro.elasticity.policies import get_policy
from repro.execution import ExecutionMode, SenderGroup, spans
from repro.partitioning.registry import available_schemes, create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

#: AD's clocks are short enough for every sender of five to switch.
SCHEME_OPTIONS: dict[str, dict[str, object]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
    "AD": {"check_interval": 200, "policy": "dwell=300"},
}

NUM_WORKERS = 12
SEED = 7
TOTAL = 6_000
STREAM = [
    f"key-{rank}"
    for rank in ZipfWorkload(exponent=1.4, num_keys=500, num_messages=TOTAL, seed=SEED)
]


class _ChunkedStream:
    """A key stream with its own chunk granularity, as native workloads have.

    ``iter_batches_columnar`` ignores the requested size and cycles through
    ``sizes`` — the group must deal by global index whatever arrives.
    """

    def __init__(self, keys: list[str], sizes: list[int]) -> None:
        self._keys = keys
        self._sizes = sizes

    def iter_batches_columnar(self, batch_size: int):
        dictionary = KeyDictionary()
        position = step = 0
        while position < len(self._keys):
            size = self._sizes[step % len(self._sizes)]
            step += 1
            chunk = self._keys[position : position + size]
            yield ColumnarBatch(dictionary.intern_keys(chunk), dictionary, position)
            position += len(chunk)


def _build(scheme: str, num_senders: int) -> SenderGroup:
    return SenderGroup.build(
        scheme, num_senders, NUM_WORKERS, seed=SEED, **SCHEME_OPTIONS.get(scheme, {})
    )


def _worker_count(step: int) -> int:
    """The worker count after the ``step``-th boundary (join, leave, ...)."""
    return NUM_WORKERS + (step + 1) % 2


def _scalar_deal(scheme, num_senders, boundaries, policy):
    group = _build(scheme, num_senders)
    pending = list(boundaries)
    applied = 0
    decisions = []
    for index, key in enumerate(STREAM):
        while pending and pending[0] <= index:
            pending.pop(0)
            group.rescale(policy, _worker_count(applied))
            applied += 1
        decision = group.partitioners[index % num_senders].route_with_decision(key)
        decisions.append((decision.worker, decision.is_head))
    return group, decisions


def _assert_columns(workers, heads, length: int) -> None:
    """The id kernel's answer: ``length`` int64 workers and a bool mask of
    the same length holding at least one head, or ``None``."""
    assert isinstance(workers, np.ndarray) and workers.dtype == np.int64
    assert workers.shape == (length,)
    if heads is not None:
        assert isinstance(heads, np.ndarray) and heads.dtype == np.bool_
        assert heads.shape == (length,) and heads.any()


def _span_deal(scheme, num_senders, stream, mode, boundaries, policy):
    group = _build(scheme, num_senders)
    pending = list(boundaries)
    applied = 0
    workers: list[int] = []
    flags: list[bool] = []
    expected_index = 0
    for span, index in spans(stream, group, mode, boundaries):
        assert index == expected_index and len(span) > 0
        assert not any(index < cut < index + len(span) for cut in boundaries)
        while pending and pending[0] <= index:
            pending.pop(0)
            group.rescale(policy, _worker_count(applied))
            applied += 1
        span_workers, span_heads = group.route_span(span, index)
        _assert_columns(span_workers, span_heads, len(span))
        workers.extend(span_workers.tolist())
        flags.extend([False] * len(span) if span_heads is None else span_heads.tolist())
        expected_index = index + len(span)
    assert expected_index == TOTAL
    return group, list(zip(workers, flags))


def _assert_same(group: SenderGroup, decisions, reference) -> None:
    expected_group, expected = reference
    assert decisions == expected
    for ours, theirs in zip(group.partitioners, expected_group.partitioners):
        assert ours.local_loads == theirs.local_loads
        assert ours.messages_routed == theirs.messages_routed
    assert group.switch_log() == expected_group.switch_log()


class TestSpansEqualTheScalarDeal:
    @pytest.mark.parametrize("scheme", available_schemes())
    @pytest.mark.parametrize("num_senders", [1, 2, 5])
    def test_native_chunks_and_ragged_boundaries(self, scheme, num_senders):
        # Chunks of 1..3 messages are shorter than five senders; 997 and
        # 2_501 are multiples of none of the sender counts above one.
        boundaries = [0, 997, 2_501, 2_501, 4_000]
        policy = get_policy("migrate")
        reference = _scalar_deal(scheme, num_senders, boundaries, policy)
        stream = _ChunkedStream(STREAM, [3, 1, 64, 2, 700, 1, 13])
        group, decisions = _span_deal(
            scheme, num_senders, stream, ExecutionMode.columnar(50), boundaries, policy
        )
        _assert_same(group, decisions, reference)
        if scheme == "AD":
            assert reference[0].switch_log(), "AD never switched: vacuous check"

    @given(
        scheme=st.sampled_from(available_schemes()),
        num_senders=st.integers(min_value=1, max_value=5),
        sizes=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=6),
        batch_size=st.integers(min_value=1, max_value=300),
        native=st.booleans(),
        boundaries=st.lists(
            st.integers(min_value=0, max_value=TOTAL + 10), max_size=4
        ).map(sorted),
        policy=st.sampled_from(["rehash", "migrate", "remap"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_senders_chunks_and_boundaries(
        self, scheme, num_senders, sizes, batch_size, native, boundaries, policy
    ):
        policy = get_policy(policy)
        reference = _scalar_deal(scheme, num_senders, boundaries, policy)
        # A plain list goes through the generic chunker (batch_size messages
        # per sender), the chunked stream through its own granularity.
        stream = _ChunkedStream(STREAM, sizes) if native else STREAM
        group, decisions = _span_deal(
            scheme, num_senders, stream, ExecutionMode.columnar(batch_size),
            boundaries, policy,
        )
        _assert_same(group, decisions, reference)


class TestKernelContract:
    """``_route_ids`` and ``route_span`` answer in columns: an ``int64``
    worker array and a ``bool`` head mask that is ``None`` exactly when the
    scalar deal flags no message of the span head."""

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_columns_and_none_exactly_when_no_head(self, scheme):
        num_senders = 5
        _, expected = _scalar_deal(scheme, num_senders, [], get_policy("migrate"))
        group = _build(scheme, num_senders)
        kinds = set()
        for span, index in spans(STREAM, group, ExecutionMode.columnar(97)):
            workers, heads = group.route_span(span, index)
            _assert_columns(workers, heads, len(span))
            reference = expected[index : index + len(span)]
            flagged = [is_head for _, is_head in reference]
            assert (heads is None) == (not any(flagged))
            assert workers.tolist() == [worker for worker, _ in reference]
            if heads is not None:
                assert heads.tolist() == flagged
            kinds.add(heads is None)
        if any(is_head for _, is_head in expected):
            # The first span ends inside the warmup, later ones hold heads.
            assert kinds == {True, False}

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_id_kernel_of_one_sender(self, scheme):
        oracle = _build(scheme, 1).partitioners[0]
        expected = [oracle.route_with_decision(key) for key in STREAM]
        kernel = _build(scheme, 1).partitioners[0]
        dictionary = KeyDictionary()
        kernel._bind_dictionary(dictionary)
        for start in range(0, TOTAL, 731):
            ids = dictionary.intern_keys(STREAM[start : start + 731])
            workers, heads = kernel._route_ids(ids)
            _assert_columns(workers, heads, len(ids))
            reference = expected[start : start + len(ids)]
            flagged = [decision.is_head for decision in reference]
            assert (heads is None) == (not any(flagged))
            assert workers.tolist() == [decision.worker for decision in reference]
            if heads is not None:
                assert heads.tolist() == flagged
        assert kernel.local_loads == oracle.local_loads


class TestSenderGroup:
    def test_senders_share_the_seed_except_shuffle_grouping(self):
        pkg = SenderGroup.build("pkg", 3, NUM_WORKERS, seed=4)
        assert [p.seed for p in pkg.partitioners] == [4, 4, 4]
        sg = SenderGroup.build("shuffle", 3, NUM_WORKERS, seed=4)
        assert [p.seed for p in sg.partitioners] == [4, 5, 6]

    def test_wraps_existing_partitioners(self):
        partitioner = create_partitioner("PKG", num_workers=4)
        group = SenderGroup([partitioner])
        assert group.num_senders == 1 and group.partitioners[0] is partitioner

    def test_switch_log_labels_rows_and_orders_by_position(self):
        group, _ = _scalar_deal("AD", 3, [], get_policy("migrate"))
        rows = group.switch_log(sender_field="source", edge="a->b")
        assert rows and all(row["edge"] == "a->b" for row in rows)
        assert list(rows[0])[-2:] == ["edge", "source"]
        order = [(row["position"], row["source"]) for row in rows]
        assert order == sorted(order)
        assert _build("PKG", 3).switch_log() == []


def _sketch_of(partitioner):
    """The sender's heavy-hitter sketch (AD's is its monitor)."""
    if isinstance(partitioner, AdaptivePartitioner):
        return partitioner._monitor
    return partitioner.sketch


class TestSenderLocalSketches:
    """Section V-A: heavy hitters are detected per sender, on the share of
    the stream that sender was dealt — never on a sketch shared with the
    others."""

    @pytest.mark.parametrize("scheme", ["D-C", "W-C", "RR", "FIXED-D", "AD"])
    def test_each_sender_owns_a_sketch_fed_its_share(self, scheme):
        num_senders = 5
        group = _build(scheme, num_senders)
        sketches = [_sketch_of(p) for p in group.partitioners]
        assert len({id(sketch) for sketch in sketches}) == num_senders

        keys = [
            f"key-{rank}"
            for rank in ZipfWorkload(exponent=1.2, num_keys=2_000, num_messages=10_000, seed=3)
        ]
        for span, index in spans(keys, group, ExecutionMode.columnar(97)):
            group.route_span(span, index)

        for sender, partitioner in enumerate(group.partitioners):
            share = len(range(sender, len(keys), num_senders))
            assert _sketch_of(partitioner).total == share
