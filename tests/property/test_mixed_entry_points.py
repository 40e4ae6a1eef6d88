"""Any interleaving of the three entry points equals the pure scalar run.

A partitioner owns one key-id namespace (see ``partitioning/base.py``):
``route(key)``, ``route_batch(keys)`` and ``route_batch_columnar(batch)``
all feed the *same* head table and head-candidate cache through the same
:class:`~repro.workloads.columnar.KeyDictionary`.  So however a caller mixes
them on one partitioner, every worker, every head flag, the load vector and
the transplantable state must match a partitioner that saw the same stream
one ``route_with_decision`` at a time.

Before the namespace was unified, ``route(key)`` after a columnar batch fed
raw keys into a sketch holding ids: thousands of placements differed for
D-C / W-C / RR.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.registry import available_schemes, create_partitioner
from repro.workloads.columnar import ColumnarBatch, KeyDictionary
from repro.workloads.zipf_stream import ZipfWorkload

#: As in the state-roundtrip suite; AD's clocks make it switch mid-stream.
SCHEME_OPTIONS: dict[str, dict[str, object]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
    "AD": {"check_interval": 500, "policy": "dwell=1000"},
}

NUM_WORKERS = 12
SEED = 7
TOTAL = 6_000
HANDOFF = 3_100  # state is transplanted into a fresh instance here

#: Segment lengths on both sides of ``route_batch``'s short-fragment cutoff.
LENGTHS = (1, 7, 30, 200, 900)
ENTRY_POINTS = ("route", "route_batch", "route_batch_columnar")


def _stream() -> list[str]:
    ranks = ZipfWorkload(exponent=1.4, num_keys=500, num_messages=TOTAL, seed=SEED)
    return [f"key-{rank}" for rank in ranks]


STREAM = _stream()


def _build(scheme):
    return create_partitioner(
        scheme, num_workers=NUM_WORKERS, seed=SEED, **SCHEME_OPTIONS.get(scheme, {})
    )


def _scalar_reference(scheme):
    partitioner = _build(scheme)
    decisions = [partitioner.route_with_decision(key) for key in STREAM]
    return (
        partitioner,
        [decision.worker for decision in decisions],
        [decision.is_head for decision in decisions],
    )


def _route_segment(partitioner, entry, keys, start, stream_dictionary, flags):
    """Route ``keys`` through one entry point; returns the workers."""
    if entry == "route":
        decisions = [partitioner.route_with_decision(key) for key in keys]
        flags.extend(decision.is_head for decision in decisions)
        return [decision.worker for decision in decisions]
    if entry == "route_batch":
        return partitioner.route_batch(keys, head_flags=flags)
    batch = ColumnarBatch(stream_dictionary.intern_keys(keys), stream_dictionary, start)
    return partitioner.route_batch_columnar(batch, head_flags=flags)


def _run_plan(scheme, plan):
    """Route STREAM by ``plan`` (a cycle of (entry point, length) segments),
    transplanting the state into a fresh partitioner at HANDOFF."""
    partitioner = _build(scheme)
    stream_dictionary = KeyDictionary()
    workers: list[int] = []
    flags: list[bool] = []
    position = 0
    step = 0
    while position < TOTAL:
        entry, length = plan[step % len(plan)]
        step += 1
        stop = min(position + length, TOTAL)
        if position < HANDOFF < stop:
            stop = HANDOFF  # a segment ends exactly at the handoff
        workers.extend(
            _route_segment(
                partitioner, entry, STREAM[position:stop], position,
                stream_dictionary, flags,
            )
        )
        position = stop
        if position == HANDOFF:
            adoptee = _build(scheme)
            adoptee.adopt_state(partitioner.export_state())
            partitioner = adoptee
    return partitioner, workers, flags


def _assert_matches_reference(scheme, plan, reference):
    expected, expected_workers, expected_flags = reference
    partitioner, workers, flags = _run_plan(scheme, plan)
    assert workers == expected_workers
    assert flags == expected_flags
    assert partitioner.local_loads == expected.local_loads
    assert partitioner.messages_routed == expected.messages_routed
    if scheme == "AD":
        assert expected.switch_events(), "AD never switched: vacuous check"
        assert partitioner.switch_events() == expected.switch_events()


@pytest.fixture(scope="module")
def references():
    return {scheme: _scalar_reference(scheme) for scheme in available_schemes()}


class TestMixedEntryPoints:
    @pytest.mark.parametrize("scheme", available_schemes())
    @pytest.mark.parametrize("first", ENTRY_POINTS)
    def test_round_robin_over_the_entry_points(self, scheme, first, references):
        # Whichever entry point touches the partitioner first decides which
        # dictionary becomes the namespace (a private one, or the stream's).
        start = ENTRY_POINTS.index(first)
        order = ENTRY_POINTS[start:] + ENTRY_POINTS[:start]
        plan = [(entry, length) for length in (200, 30, 7) for entry in order]
        _assert_matches_reference(scheme, plan, references[scheme])

    @given(
        scheme=st.sampled_from(available_schemes()),
        plan=st.lists(
            st.tuples(st.sampled_from(ENTRY_POINTS), st.sampled_from(LENGTHS)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_interleavings(self, scheme, plan, references):
        _assert_matches_reference(scheme, plan, references[scheme])
