"""The operator bulk contract: execute_batch ≡ scalar execute loop.

Every bulk override (aggregator per-key pre-reduction, the windowed
earliest-deadline guard, the reconciliation pre-merge) must leave the
operator in exactly the state the scalar loop would, return outputs
grouped per input in scalar emission order, and advance ``processed``
identically.
"""

from __future__ import annotations

import random

import pytest

from repro.operators.aggregations import CountAggregator
from repro.operators.base import StatefulOperator, StatelessOperator
from repro.operators.reconciliation import ReconciliationSink
from repro.operators.windows import TumblingWindowAssigner, WindowedAggregator
from repro.types import Message
from repro.workloads.columnar import KeyDictionary


def _messages(count: int = 2_000, num_keys: int = 37, seed: int = 1):
    rng = random.Random(seed)
    return [
        Message(float(index), f"k{rng.randrange(num_keys)}", rng.randrange(1, 9))
        for index in range(count)
    ]


class TestAggregatorBatches:
    def test_update_batch_matches_scalar_updates(self):
        scalar, batched = CountAggregator(), CountAggregator()
        messages = _messages()

        for message in messages:
            outputs = scalar.execute(message)
            assert outputs == []
        chunk = 311  # deliberately not a divisor
        for start in range(0, len(messages), chunk):
            grouped = batched.execute_batch(messages[start : start + chunk])
            assert all(len(outputs) == 0 for outputs in grouped)

        assert batched.processed == scalar.processed == len(messages)
        assert batched.state_size() == scalar.state_size()
        assert batched.partial_state() == scalar.partial_state()

    def test_count_batch_is_bit_exact(self):
        scalar, batched = CountAggregator(), CountAggregator()
        messages = _messages(count=5_000, num_keys=11)
        for message in messages:
            scalar.execute(message)
        batched.execute_batch(messages)
        assert batched.partial_state() == scalar.partial_state()


class _PlainCount(StatefulOperator):
    """A counter with no id-space override: the base class decodes each id."""

    def update(self, key, value):
        assert value is None  # key-only ingestion
        self.state.put(key, (self.state.peek(key) or 0) + 1)


class TestIdBatches:
    """The terminal fold in id space equals the scalar loop over the keys."""

    @staticmethod
    def _interned(count: int = 3_000, num_keys: int = 29, seed: int = 5):
        rng = random.Random(seed)
        keys = [f"k{rng.randrange(num_keys)}" for _ in range(count)]
        dictionary = KeyDictionary()
        return keys, dictionary.intern_keys(keys).tolist(), dictionary

    @pytest.mark.parametrize("chunk", [1, 7, 311, 3_000])
    def test_count_ids_match_scalar_updates_in_order(self, chunk):
        keys, ids, dictionary = self._interned()
        scalar, folded = CountAggregator(), CountAggregator()
        for key in keys:
            scalar.execute(Message(0.0, key))
        for start in range(0, len(ids), chunk):
            folded.execute_batch_ids(ids[start : start + chunk], dictionary)

        assert folded.processed == scalar.processed == len(keys)
        # Same counts and the same key order: first arrival, as the scalar loop.
        assert list(folded.partial_state().items()) == list(scalar.partial_state().items())

    def test_default_id_fold_decodes_every_id(self):
        keys, ids, dictionary = self._interned(count=500, num_keys=7)
        scalar, folded = CountAggregator(), _PlainCount()
        for key in keys:
            scalar.execute(Message(0.0, key))
        folded.execute_batch_ids(ids, dictionary)

        assert folded.processed == len(keys)
        assert list(folded.partial_state().items()) == list(scalar.partial_state().items())


class TestStatelessBatches:
    def test_outputs_grouped_per_input(self):
        operator = StatelessOperator(
            lambda message: [
                Message(message.timestamp, word, 1)
                for word in str(message.value).split()
            ]
        )
        messages = [
            Message(0.0, "a", "x y"),
            Message(1.0, "b", ""),
            Message(2.0, "c", "z"),
        ]
        grouped = operator.execute_batch(messages)
        assert [len(outputs) for outputs in grouped] == [2, 0, 1]
        assert [m.key for m in grouped[0]] == ["x", "y"]
        assert operator.processed == 3


@pytest.mark.parametrize("size", [32.0, 7.5], ids=["tumbling", "fractional"])
class TestWindowedBatches:
    def _make(self, size, lateness: float = 0.0):
        return WindowedAggregator(
            TumblingWindowAssigner(size),
            lambda accumulator, value: accumulator + value,
            int,
            allowed_lateness=lateness,
        )

    def test_batch_emissions_identical_to_scalar(self, size):
        scalar = self._make(size)
        batched = self._make(size)
        messages = _messages(count=3_000, num_keys=23)

        scalar_out = [scalar.execute(message) for message in messages]
        batched_out = []
        chunk = 257
        for start in range(0, len(messages), chunk):
            batched_out.extend(
                list(outputs)
                for outputs in batched.execute_batch(messages[start : start + chunk])
            )

        assert batched_out == scalar_out
        assert batched.state_size() == scalar.state_size()
        assert batched.watermark == scalar.watermark
        assert batched.flush() == scalar.flush()

    def test_batch_with_lateness(self, size):
        scalar = self._make(size, lateness=40.0)
        batched = self._make(size, lateness=40.0)
        messages = _messages(count=1_500, num_keys=7, seed=4)
        scalar_out = [scalar.execute(message) for message in messages]
        batched_out = [list(o) for o in batched.execute_batch(messages)]
        assert batched_out == scalar_out
        assert batched.flush() == scalar.flush()


class TestReconciliationSinkBatches:
    def test_streaming_merge_matches_scalar(self):
        scalar = ReconciliationSink(CountAggregator.merge)
        batched = ReconciliationSink(CountAggregator.merge)
        messages = _messages(count=2_000, num_keys=13, seed=2)
        for message in messages:
            scalar.execute(message)
        chunk = 173
        for start in range(0, len(messages), chunk):
            batched.execute_batch(messages[start : start + chunk])
        assert batched.partial_state() == scalar.partial_state()
        assert batched.partials_merged == scalar.partials_merged

    def test_partials_merged_counts_updates(self):
        sink = ReconciliationSink(CountAggregator.merge)
        sink.update("a", 2)
        sink.update("a", 3)
        sink.update("b", 1)
        assert sink.partials_merged == {"a": 2, "b": 1}
        assert sink.state.peek("a") == 5

    def test_merge_order_is_associative_fold(self):
        # min as the merge: associative, non-commutative folds would differ
        # — the sink documents the associativity requirement.
        sink = ReconciliationSink(min)
        sink.update_batch([("k", 4), ("k", 2), ("k", 9)])
        sink.update_batch([("k", 3)])
        assert sink.state.peek("k") == 2
