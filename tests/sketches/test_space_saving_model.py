"""SpaceSaving against an independent brute-force model.

The stream summary (count classes in a linked list, a victim snapshot, the
bulk loop's inlined copies) is checked everywhere else against ``add`` +
``estimate`` of the *same* class.  Here the oracle shares no code with it: a
flat list of ``[key, count, error, entered_class_at]`` rows whose eviction
victim is ``min`` by ``(count, entered_class_at)`` — the oldest key of the
minimum class, spelled out.  Hypothesis drives every public mutator over
small capacities and key spaces (where classes collide, empty and get reused
on almost every message) and the whole observable state is compared after
every operation.  The ``@example`` scripts are the shortest sequences that
separate the implementation from its four nearest wrong versions: evicting
the *newest* key of the class, keeping the victim snapshot across the
in-place reuse of a singleton minimum bucket, keeping it across ``grow()`` +
insert, and losing a key's error when it changes class.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketches.space_saving import SpaceSaving

THRESHOLDS = (0.0, 0.1, 0.3)


class Model:
    """Brute-force SpaceSaving over a flat list of rows."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.total = 0
        self.rows: list[list] = []  # [key, count, error, entered_class_at]
        self.clock = 0

    def add(self, key, count: int = 1) -> int:
        self.total += count
        self.clock += 1
        for row in self.rows:
            if row[0] == key:
                row[1] += count
                row[3] = self.clock
                return row[1]
        if len(self.rows) < self.capacity:
            self.rows.append([key, count, 0, self.clock])
            return count
        victim = min(self.rows, key=lambda row: (row[1], row[3]))
        self.rows.remove(victim)
        self.rows.append([key, victim[1] + count, victim[1], self.clock])
        return victim[1] + count

    def classify(self, keys, threshold: float, warmup: int):
        """``(runs, tail)`` of the reference add-then-test loop."""
        runs, tail, run = [], [], 0
        for key in keys:
            estimate = self.add(key)
            if self.total >= warmup and estimate >= threshold * self.total:
                run += 1
            else:
                runs.append(run)
                run = 0
                tail.append(key)
        return runs + [run], tail

    def summary(self) -> list[tuple]:
        ordered = sorted(self.rows, key=lambda row: (row[1], row[3]))
        return [(key, count, error) for key, count, error, _ in ordered]

    def rebuilt(self, capacity: int, entries: list[tuple], total: int) -> "Model":
        """A model holding ``entries``, entered in the order given."""
        model = Model(capacity)
        model.total = total
        for key, count, error in entries:
            model.clock += 1
            model.rows.append([key, count, error, model.clock])
        return model

    def roundtrip(self, capacity: int) -> "Model":
        return self.rebuilt(capacity, self.summary()[-capacity:], self.total)

    def merge(self, other: "Model") -> "Model":
        floor_self = self._floor()
        floor_other = other._floor()
        mine = {key: (count, error) for key, count, error in self.summary()}
        theirs = {key: (count, error) for key, count, error in other.summary()}
        combined = []
        for key, (count, error) in mine.items():
            extra = theirs.get(key, (floor_other, floor_other))
            combined.append((key, count + extra[0], error + extra[1]))
        for key, (count, error) in theirs.items():
            if key not in mine:
                combined.append((key, count + floor_self, error + floor_self))
        capacity = max(self.capacity, other.capacity)
        combined.sort(key=lambda entry: -entry[1])  # stable: ties keep order
        return self.rebuilt(capacity, combined[:capacity], self.total + other.total)

    def _floor(self) -> int:
        if len(self.rows) < self.capacity:
            return 0
        return min(row[1] for row in self.rows)


def _check(sketch: SpaceSaving, model: Model, space: int, additive: bool) -> None:
    summary = model.summary()
    assert sketch.export_state() == {
        "capacity": model.capacity,
        "total": model.total,
        "entries": summary,
    }
    assert len(sketch) == len(summary) <= sketch.capacity
    rows = {key: (count, error) for key, count, error in summary}
    for key in range(space):
        count, error = rows.get(key, (0, 0))
        assert sketch.estimate(key) == count
        assert sketch.error(key) == error
        assert sketch.guaranteed(key) == count - error
    for threshold in THRESHOLDS:
        head = [
            count
            for _, count, _ in summary
            if model.total and count >= threshold * model.total
        ]
        assert sketch.head_counts(threshold) == head
        assert sketch.head_signature(threshold) == (len(head), max(head, default=0))
    if additive:
        assert sum(count for count, _ in rows.values()) == model.total


def _run(capacity: int, space: int, script) -> None:
    sketch, model = SpaceSaving(capacity), Model(capacity)
    additive = True  # every message is still inside some counter
    for op, *args in script:
        if op == "add":
            sketch.add(*args)
            model.add(*args)
        elif op == "add_all":
            keys = [key for key, run in args[0] for _ in range(run)]
            sketch.add_all(keys)
            for key in keys:  # weight-linearity: the model feeds units
                model.add(key)
        elif op == "add_and_estimate":
            assert sketch.add_and_estimate(*args) == model.add(*args)
        elif op == "classify":
            keys, threshold, warmup = args
            tail: list = []
            runs = sketch.add_and_classify_runs(keys, threshold, warmup, tail)
            assert (runs, tail) == model.classify(keys, threshold, warmup)
        elif op == "grow":
            sketch.grow(sketch.capacity + args[0])
            model.capacity += args[0]
        elif op == "roundtrip":
            target = max(1, model.capacity - args[0])
            additive = additive and len(model.rows) <= target
            sketch = SpaceSaving.from_state(
                sketch.export_state(), capacity=target if args[0] else None
            )
            model = model.roundtrip(target)
        elif op == "merge":
            other, other_model = SpaceSaving(args[0]), Model(args[0])
            for key in args[1]:
                other.add(key)
                other_model.add(key)
            sketch, model = sketch.merge(other), model.merge(other_model)
            additive = False
        elif op == "reset":
            sketch.reset()
            model = Model(model.capacity)
            additive = True
        _check(sketch, model, space, additive)


@st.composite
def scripts(draw):
    capacity = draw(st.integers(1, 13))
    space = draw(st.integers(3, 40))
    key = st.integers(0, space - 1)
    chunk = st.lists(key, max_size=40)
    classify = st.tuples(
        st.just("classify"), chunk, st.sampled_from(THRESHOLDS), st.sampled_from([0, 8])
    )
    op = st.one_of(
        classify,
        classify,
        st.tuples(st.just("add"), key),
        st.tuples(st.just("add"), key, st.integers(1, 5)),
        st.tuples(
            st.just("add_all"),
            st.lists(st.tuples(key, st.integers(1, 3)), max_size=20),
        ),
        st.tuples(st.just("add_and_estimate"), key),
        st.tuples(st.just("grow"), st.integers(0, 3)),
        st.tuples(st.just("roundtrip"), st.integers(0, 4)),
        st.tuples(st.just("merge"), st.integers(1, 8), chunk),
        st.tuples(st.just("reset")),
    )
    return capacity, space, draw(st.lists(op, max_size=30))


def _bulk(*keys):
    return ("classify", list(keys), 0.1, 0)


def _scalar(*keys):
    return [("add", key) for key in keys]


# Oldest, not newest: 2 evicts 0.
@example((2, 3, [_bulk(0, 1, 2)]))
@example((2, 3, _scalar(0, 1, 2)))
# In-place reuse under a live snapshot: {0,1,2}@1 is snapshotted when 3
# evicts 0; 3 and 1 climb to 3, leaving {2}@1 with no class 2; 4 evicts 2 and
# reuses the bucket in place; 5 must then evict 4, which no snapshot lists.
@example((3, 6, [_bulk(0, 1, 2, 3, 3, 1, 1, 4, 5, 0)]))
@example((3, 6, _scalar(0, 1, 2, 3, 3, 1, 1, 4, 5, 0)))
# grow() + insert under a live snapshot: 4 enters class 1 after 1 and 2 and
# is the third victim.
@example((3, 8, [_bulk(0, 1, 2, 3), ("grow", 1), _bulk(4, 5, 6, 7)]))
@example((3, 8, _scalar(0, 1, 2, 3) + [("grow", 1)] + _scalar(4, 5, 6, 7)))
@example((3, 8, [_bulk(0, 1, 2, 3), ("grow", 1), ("add", 4, 1), _bulk(5, 6, 7)]))
# The error travels with the key: 3 enters with error 1 and is relinked out
# of a shared class.
@example((3, 5, [_bulk(0, 1, 2, 3, 4, 3)]))
@example((3, 5, _scalar(0, 1, 2, 3, 4, 3)))
@example((3, 5, _scalar(0, 1, 2, 3, 4) + [("add", 3, 2)]))
@settings(max_examples=250, deadline=None)
@given(scripts())
def test_every_operation_matches_the_model(case):
    capacity, space, script = case
    _run(capacity, space, script)
