"""Unit tests for the operator base classes and the count aggregator."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.operators.aggregations import CountAggregator
from repro.operators.base import KeyedState, StatelessOperator
from repro.types import Message


class TestKeyedState:
    def test_get_initialises_once(self):
        state = KeyedState()
        assert state.get("a", int) == 0
        state.put("a", 5)
        assert state.get("a", int) == 5

    def test_peek_does_not_create(self):
        state = KeyedState()
        assert state.peek("missing") is None
        assert "missing" not in state
        assert len(state) == 0

    def test_len_counts_distinct_keys(self):
        state = KeyedState()
        state.put("a", 1)
        state.put("b", 2)
        state.put("a", 3)
        assert len(state) == 2
        assert set(state.keys()) == {"a", "b"}


class TestStatelessOperator:
    def test_from_function_flatmap(self):
        splitter = StatelessOperator.from_function(
            lambda message: [
                Message(message.timestamp, word, 1)
                for word in str(message.value).split()
            ]
        )
        outputs = splitter.execute(Message(0.0, "line-1", "a b c"))
        assert [m.key for m in outputs] == ["a", "b", "c"]
        assert splitter.processed == 1
        assert splitter.state_size() == 0

    def test_invalid_instance_id(self):
        with pytest.raises(ConfigurationError):
            StatelessOperator(lambda message: [], instance_id=-1)


class TestCountAggregator:
    def test_counts_per_key(self):
        counter = CountAggregator()
        for key in ["a", "b", "a", "a"]:
            counter.execute(Message(0.0, key))
        assert counter.result("a") == 3
        assert counter.result("b") == 1
        assert counter.result("missing") == 0

    def test_state_size(self):
        counter = CountAggregator()
        for key in ["a", "b", "c"]:
            counter.update(key, None)
        assert counter.state_size() == 3

    def test_merge(self):
        assert CountAggregator.merge(3, 4) == 7

    def test_partial_state_snapshot(self):
        counter = CountAggregator()
        counter.update("a", None)
        snapshot = counter.partial_state()
        counter.update("a", None)
        assert snapshot == {"a": 1}
