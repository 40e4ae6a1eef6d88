"""export_state() -> adopt_state() round-trips are byte-identical.

The hot-swap contract of :class:`~repro.partitioning.base.Partitioner`
(referenced from its docstring): exporting a live partitioner's state and
adopting it into a *fresh, identically-constructed* instance of the same
scheme must be indistinguishable from never having exported at all.  Every
future routing decision, load counter and sketch observation must match the
uninterrupted control exactly — otherwise the adaptive partitioner's
scheme switches (and any state handoff built on the contract) would perturb
results.

The sweep covers every registered scheme — the nine static schemes plus the
adaptive wrapper itself — over the scalar, batched and columnar entry
points, splitting the stream at an awkward (non-batch-aligned) point.
"""

from __future__ import annotations

import pytest

from repro.partitioning.registry import available_schemes, create_partitioner
from repro.workloads.columnar import iter_batches_columnar
from repro.workloads.zipf_stream import ZipfWorkload

#: Constructor extras for schemes whose signature requires them, matching
#: the scenario-equivalence suite; AD gets per-source clocks small enough
#: to switch schemes *before and after* the export point.
SCHEME_OPTIONS: dict[str, dict[str, object]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
    "AD": {"check_interval": 500, "policy": "dwell=1000"},
}

NUM_WORKERS = 12
SEED = 7
SPLIT = 2_617  # awkward on purpose: inside a batch, past AD's first switch
TOTAL = 6_000


def keys() -> list:
    return list(
        ZipfWorkload(exponent=1.4, num_keys=500, num_messages=TOTAL, seed=SEED)
    )


def build(scheme):
    return create_partitioner(
        scheme,
        num_workers=NUM_WORKERS,
        seed=SEED,
        **SCHEME_OPTIONS.get(scheme, {}),
    )


def _fingerprint(partitioner) -> tuple:
    return (
        partitioner.messages_routed,
        tuple(partitioner.local_loads),
    )


class TestRoundTripIsByteIdentical:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_batched_roundtrip_matches_uninterrupted_run(self, scheme):
        stream = keys()
        control = build(scheme)
        control_out = control.route_batch(stream[:SPLIT])

        donor = build(scheme)
        assert donor.route_batch(stream[:SPLIT]) == control_out
        adoptee = build(scheme)
        adoptee.adopt_state(donor.export_state())
        assert _fingerprint(adoptee) == _fingerprint(control)

        # Every decision after the handoff must match the control exactly.
        assert (
            adoptee.route_batch(stream[SPLIT:])
            == control.route_batch(stream[SPLIT:])
        )
        assert _fingerprint(adoptee) == _fingerprint(control)

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_scalar_roundtrip_matches_uninterrupted_run(self, scheme):
        stream = keys()[:3_000]
        split = 1_213
        control = build(scheme)
        for key in stream[:split]:
            control.route(key)

        donor = build(scheme)
        for key in stream[:split]:
            donor.route(key)
        adoptee = build(scheme)
        adoptee.adopt_state(donor.export_state())

        assert [adoptee.route(key) for key in stream[split:]] == [
            control.route(key) for key in stream[split:]
        ]
        assert _fingerprint(adoptee) == _fingerprint(control)

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_columnar_roundtrip_matches_uninterrupted_run(self, scheme):
        # One shared dictionary, as a single source would hold: the adoptee
        # resumes on batches interned by the same id space as the donor's.
        stream = keys()
        batches = list(iter_batches_columnar(stream, batch_size=709))
        boundary = 4  # hand off between batches 3 and 4

        control = build(scheme)
        donor = build(scheme)
        for batch in batches[:boundary]:
            assert donor.route_batch_columnar(batch) == (
                control.route_batch_columnar(batch)
            )
        adoptee = build(scheme)
        adoptee.adopt_state(donor.export_state())
        assert _fingerprint(adoptee) == _fingerprint(control)

        for batch in batches[boundary:]:
            assert adoptee.route_batch_columnar(batch) == (
                control.route_batch_columnar(batch)
            )
        assert _fingerprint(adoptee) == _fingerprint(control)

    def test_adaptive_roundtrip_preserves_scheme_and_switch_log(self):
        stream = keys()
        donor = build("AD")
        donor.route_batch(stream[:SPLIT])
        assert donor.switch_events(), "split point must lie past a switch"

        adoptee = build("AD")
        adoptee.adopt_state(donor.export_state())
        assert adoptee.current_scheme == donor.current_scheme
        assert [record.to_dict() for record in adoptee.switch_events()] == [
            record.to_dict() for record in donor.switch_events()
        ]


class TestHeadCacheHandoff:
    """What a head/tail scheme hands over of its per-head-key structures: the
    candidate tuples for the effective d, as ``({id: tuple}, d)`` — a pure
    derivation worth carrying — and nothing that refers to the donor's load
    vector (the scan floors) or that the two sides could then both mutate."""

    @pytest.mark.parametrize("scheme", ["D-C", "FIXED-D"])
    def test_exported_shape_and_isolation(self, scheme):
        stream = keys()
        donor = build(scheme)
        donor.route_batch(stream[:SPLIT])
        state = donor.export_state()

        cache, d = state["head_cand_cache"]
        assert cache and d == donor._head_cand_cache_d >= 2
        assert cache == donor._head_cand_cache
        for kid, candidates in cache.items():
            assert isinstance(kid, int) and isinstance(candidates, tuple)
            assert len(set(candidates)) == len(candidates) <= d
        assert any(floor >= 0 for floor in donor._head_floors.values())

        def mutables(value):
            """Every dict / list reachable from ``value``, by identity."""
            found = {}
            stack = [value]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    found[id(item)] = item
                    stack.extend(item.values())
                elif isinstance(item, (list, tuple)):
                    if isinstance(item, list):
                        found[id(item)] = item
                    stack.extend(item)
            return found

        adoptee = build(scheme)
        adoptee.adopt_state(state)
        assert adoptee._head_cand_cache == donor._head_cand_cache
        assert adoptee._head_cand_cache_d == d
        # The floors were not in the snapshot: the adoptee starts every key
        # below any load, whatever the donor had learned.
        assert set(adoptee._head_floors.values()) == {-1}
        assert adoptee._head_floors.keys() == cache.keys()
        names = ("_head_cand_cache", "_head_floors")
        owned = {id(getattr(adoptee, name)) for name in names}
        assert len(owned) == len(names)
        assert not owned & {id(getattr(donor, name)) for name in names}
        assert not owned & mutables(state).keys()
        assert not {id(getattr(donor, name)) for name in names} & mutables(state).keys()
        # The raw hash prefixes are neither side's: they depend on no load,
        # and both read the one store of the dictionary they share.
        prefixes = adoptee._hashes._rows(adoptee._id_dict).heads
        assert prefixes is donor._hashes._rows(donor._id_dict).heads
        assert prefixes.keys() >= cache.keys()
        assert id(prefixes) not in mutables(state)

    @pytest.mark.parametrize("scheme", ["D-C", "FIXED-D"])
    def test_donor_and_adoptee_route_on_independently(self, scheme):
        # The donor keeps routing next to its adoptee, chunk by chunk; a
        # shared floor table would hand one side the other's raised floors.
        stream = keys()
        donor = build(scheme)
        donor.route_batch(stream[:SPLIT])
        adoptee = build(scheme)
        adoptee.adopt_state(donor.export_state())
        for start in range(SPLIT, TOTAL, 211):
            chunk = stream[start : start + 211]
            assert donor.route_batch(chunk) == adoptee.route_batch(chunk)
        assert _fingerprint(adoptee) == _fingerprint(donor)
