"""The partitioning simulation engine.

The engine wires together:

* a workload (an iterable of keys);
* ``s`` sources, each holding its own partitioner instance (so load
  estimation and heavy-hitter tracking are local to the sender, as in the
  paper);
* ``n`` workers, represented by the global :class:`LoadTracker` and the
  worker-side key state that measures the memory of Section IV-B: a set
  of keys per worker in the scalar oracle, one bit per (key id, worker) in
  a columnar run.

The input stream is distributed over sources round-robin, which models the
shuffle-grouped edge between the spout and the sources in the evaluation
setup (Section V-A).

The sources are a :class:`~repro.execution.SenderGroup`, which deals, routes
and scatters each of the :func:`~repro.execution.spans` a columnar run
consumes — the engine keeps the scalar oracle, the span accounting (columnar
like the routing: one ``np.bitwise_or.at`` per span into the key bits, then
``np.bincount`` into the tracker, cut where the imbalance series sample) and
the rescale replay.

When the configuration carries a rescale plan, the engine replays its
worker join/leave/fail events at their exact global stream offsets — the
event offsets are the span boundaries, so columnar and scalar runs stay
byte-identical — applies the plan's policy to every source's partitioner,
resizes the tracker and the worker-side key state, and feeds a
:class:`~repro.elasticity.accountant.MigrationCostAccountant` that measures
keys moved, state migrated/lost and tuples misrouted.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from repro.elasticity.accountant import MigrationCostAccountant
from repro.elasticity.events import RescaleEvent
from repro.elasticity.policies import get_policy
from repro.exceptions import ConfigurationError, SimulationError
from repro.execution import SenderGroup, spans
from repro.partitioning.base import Partitioner
from repro.partitioning.registry import canonical_name
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import (
    ImbalanceTimeSeries,
    LoadTracker,
    WindowedImbalanceSeries,
    WorkerKeyBits,
    WorkerKeySets,
)
from repro.simulation.results import SimulationResult
from repro.types import Key, WorkerId

#: ``_account_span`` accounts the loads of segments of at least this many
#: messages with array operations and shorter ones per message.  The array
#: form costs a fixed 7-25 us per segment (``LoadTracker.record_span``'s
#: bincounts and list updates, twice when the segment holds a head message)
#: against 250-450 ns per message: the crossover sits near 20-40 messages at
#: 50 workers and near 25-50 at 100, heads at the high end.
_COLUMNAR_SEGMENT = 64


class SimulationEngine:
    """Runs one grouping scheme over one workload.

    Examples
    --------
    >>> from repro.simulation.config import SimulationConfig
    >>> config = SimulationConfig(scheme="PKG", num_workers=4, num_sources=2)
    >>> engine = SimulationEngine(config)
    >>> result = engine.run(["a", "b", "a", "c"] * 10)
    >>> result.num_messages
    40
    """

    def __init__(self, config: SimulationConfig) -> None:
        self._config = config
        self._scheme = canonical_name(config.scheme)
        self._group = SenderGroup.build(
            self._scheme,
            config.num_sources,
            config.num_workers,
            seed=config.seed,
            **config.scheme_options,
        )
        self._tracker = LoadTracker(
            config.num_workers, track_head_tail=config.track_head_tail
        )
        self._series = ImbalanceTimeSeries(interval=config.track_interval)
        # Which worker holds state for which key (memory measurement): sets
        # of keys in the scalar oracle, bits per interned id in a columnar
        # run, whose dictionary decodes them (None in scalar mode).
        self._key_state: WorkerKeySets | WorkerKeyBits = (
            WorkerKeySets(config.num_workers)
            if config.mode.is_scalar
            else WorkerKeyBits(config.num_workers)
        )
        self._columnar_dict = None
        # Elasticity: the pending event schedule and the cost accountant
        # (both None/empty in the paper's fixed-worker setting).
        plan = config.rescale_plan
        self._pending_events: list[RescaleEvent] = list(plan.events) if plan else []
        self._accountant: MigrationCostAccountant | None = None
        if plan:
            self._accountant = MigrationCostAccountant(
                policy=get_policy(plan.policy),
                migration_window=plan.migration_window,
            )
        # Adaptive sources price their scheme switches through the same
        # accountant, so one exists whenever any source can switch — even in
        # the fixed-worker setting where no plan would have created it.
        adaptive = [
            source
            for source in self._group.partitioners
            if callable(getattr(source, "bind_accountant", None))
        ]
        if adaptive and self._accountant is None:
            self._accountant = MigrationCostAccountant(
                policy=get_policy(config.rescale_policy),
                migration_window=config.migration_window,
            )
        for index, source in enumerate(self._group.partitioners):
            bind = getattr(source, "bind_accountant", None)
            if callable(bind):
                # Per-source positions map to approximate global stream
                # offsets: source i routes the messages with index
                # position * num_sources + i.
                bind(
                    self._accountant,
                    offset_scale=config.num_sources,
                    offset_base=index,
                )
        self._window_series: WindowedImbalanceSeries | None = (
            WindowedImbalanceSeries(interval=config.imbalance_window)
            if config.imbalance_window > 0
            else None
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def sources(self) -> list[Partitioner]:
        return self._group.partitioners

    @property
    def tracker(self) -> LoadTracker:
        return self._tracker

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, keys: Iterable[Key]) -> SimulationResult:
        """Consume the workload and return the aggregated result.

        ``scalar`` is the oracle: one ``route_with_decision`` per message.
        ``columnar:N`` consumes the stream as event-free spans of interned
        key ids (:func:`~repro.execution.spans`, cut at the rescale
        offsets): the sender group deals each span over the sources by
        global message index, exactly as the scalar loop assigns them,
        routes every share through ``route_batch_columnar`` and hands the
        decisions back in stream order for the metrics.  Sources share no
        state, so the per-source key subsequences — and therefore every
        routing decision and every recorded metric — are identical to
        one-at-a-time routing.
        """
        if self._config.mode.is_scalar:
            self._run_sequential(keys)
        else:
            events = self._pending_events
            offsets = [event.offset for event in events]
            for span, index in spans(keys, self._group, self._config.mode, offsets):
                while events and events[0].offset <= index:
                    self._apply_rescale(events.pop(0))
                self._columnar_dict = span.dictionary
                self._account_span(span.ids, *self._group.route_span(span, index))
        num_messages = self._tracker.messages_seen
        if num_messages == 0:
            raise ConfigurationError("cannot simulate an empty workload")
        self._series.final(self._tracker)
        return self._build_result(num_messages)

    def _run_sequential(self, keys: Iterable[Key]) -> None:
        """The scalar oracle: route, then account, one message at a time.

        The routing half also adds each message to the per-worker key sets.
        It is a generator on purpose: :meth:`_account_messages`
        accounts message ``i`` before message ``i + 1`` is routed or a
        rescale event at its offset is applied, exactly the order of a
        single per-message loop.
        """
        num_sources = self._config.num_sources
        sources = self._group.partitioners
        events = self._pending_events
        worker_keys = self._key_state.worker_keys
        head_keys = self._key_state.head_keys

        def routed() -> Iterator[tuple[Key, WorkerId, bool]]:
            for index, key in enumerate(keys):
                while events and events[0].offset <= index:
                    self._apply_rescale(events.pop(0))
                decision = sources[index % num_sources].route_with_decision(key)
                worker = decision.worker
                worker_keys[worker].add(key)
                if decision.is_head:
                    head_keys.add(key)
                yield key, worker, decision.is_head

        self._account_messages(routed())

    def _account_messages(
        self, messages: Iterable[tuple[Key, WorkerId, bool]]
    ) -> None:
        """Record routed messages one at a time, in stream order.

        The one per-message accounting body: the scalar oracle feeds it keys,
        the fragments of a columnar run feed it key ids.  The key state is
        its callers' to record.
        """
        tracker = self._tracker
        series = self._series
        window_series = self._window_series
        accountant = self._accountant

        for key, worker, is_head in messages:
            if accountant is not None and accountant.window_open:
                accountant.tick(key)
            tracker.record(worker, is_head=is_head)
            series.maybe_record(tracker)
            if window_series is not None:
                window_series.maybe_record(tracker)

    def _account_span(
        self, ids: np.ndarray, workers: np.ndarray, heads: np.ndarray | None
    ) -> None:
        """Record one routed span: columnar between sample points.

        The worker-side key state takes the whole span in one
        :meth:`~repro.simulation.metrics.WorkerKeyBits.record_span` — one
        ``np.bitwise_or.at`` over ``(id, worker)`` — since nothing reads it
        before the next rescale, and spans end at rescale offsets.  Ids
        stand in for keys (a bijection, so memory entries, distinct and head
        keys are the oracle's), and the misroute accountant ticks in id
        space too, consistent with the id-space moved-key sets of
        :meth:`_apply_rescale`.

        The loads are cut at the message counts where the imbalance series
        sample, the way :func:`~repro.execution.spans` cuts at rescale
        offsets, so every sample reads exactly the loads a per-message run
        would show it.  A segment of at least ``_COLUMNAR_SEGMENT`` messages
        is accounted with array operations; shorter ones — a closing
        fragment, a beat between the two series, a sampling interval of a
        few messages — go, merged with their short neighbours, through
        :meth:`_account_messages`.  ``workers`` and ``heads`` are the
        columns of ``SenderGroup.route_span``.
        """
        self._key_state.record_span(ids, workers, heads)
        count = len(workers)

        def account_fragment(start: int, stop: int) -> None:
            self._account_messages(
                zip(
                    ids[start:stop].tolist(),
                    workers[start:stop].tolist(),
                    repeat(False) if heads is None else heads[start:stop].tolist(),
                )
            )

        if count < _COLUMNAR_SEGMENT:
            account_fragment(0, count)
            return
        seen = self._tracker.messages_seen
        cuts = {count}
        for series in (self._series, self._window_series):
            if series is not None and series.interval > 0:
                interval = series.interval
                cuts.update(range(interval - seen % interval, count, interval))
        done = start = 0
        for stop in sorted(cuts):
            if stop - start >= _COLUMNAR_SEGMENT:
                if done < start:
                    account_fragment(done, start)
                self._account_columns(
                    ids[start:stop],
                    workers[start:stop],
                    None if heads is None else heads[start:stop],
                )
                done = stop
            start = stop
        if done < count:
            account_fragment(done, count)

    def _account_columns(
        self, ids: np.ndarray, workers: np.ndarray, heads: np.ndarray | None
    ) -> None:
        """Record the loads of one sample-free segment of a span with array
        operations.

        ``heads`` is the boolean head mask, ``None`` when the span holds no
        head message.  The series sample after the segment, which ends
        where they do.
        """
        tracker = self._tracker
        tracker.record_span(workers, heads)
        if self._accountant is not None:
            self._accountant.tick_span(ids)
        self._series.maybe_record(tracker)
        if self._window_series is not None:
            self._window_series.maybe_record(tracker)

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def _candidate_snapshot(
        self, probe: Partitioner, observed: Iterable[Key]
    ) -> dict[Key, frozenset[int]]:
        """Candidate sets of every observed key, keyed as the engine saw them.

        In columnar mode ``observed`` holds interned ids: the probe hashes
        the decoded key (candidates are a function of the key's bytes) but
        the map stays keyed by id, so moved-key sets, the migration loop and
        the accountant all remain in id space.
        """
        dictionary = self._columnar_dict
        if dictionary is None:
            return {key: frozenset(probe.key_candidates(key)) for key in observed}
        return {
            kid: frozenset(probe.key_candidates(dictionary.key_of(kid)))
            for kid in observed
        }

    def _apply_rescale(self, event: RescaleEvent) -> None:
        """Apply one worker join/leave/fail to every layer of the run.

        Steps, in order: snapshot each observed key's candidate set, apply
        the plan's policy to every source partitioner, resize the global
        tracker and the worker-side key state, re-snapshot candidates and
        charge the accountant with the keys that moved, the state entries
        that migrated (or died with a failed worker) and — for policies
        with a transition window — open the misroute window.
        """
        accountant = self._accountant
        assert accountant is not None  # only called when a plan exists
        sources = self._group.partitioners
        old_num_workers = sources[0].num_workers
        new_num_workers = event.new_num_workers(old_num_workers)
        if new_num_workers < 1:  # validated at config time; defensive here
            raise SimulationError(
                f"rescale event {event.spec} would drop below 1 worker"
            )
        record = accountant.begin_event(event, old_num_workers, new_num_workers)

        # All sources share the hashing seed, so one probe suffices to
        # observe candidate assignments (SG reports no affinity).
        probe = sources[0]
        key_state = self._key_state
        observed = key_state.observed()
        before = self._candidate_snapshot(probe, observed)

        policy = accountant.policy
        self._group.rescale(policy, new_num_workers)
        self._tracker.rescale(new_num_workers)
        removed_entries = key_state.resize(new_num_workers)

        after = self._candidate_snapshot(probe, observed)
        moved = frozenset(
            key for key in observed if before[key] and before[key] != after[key]
        )
        # State of moved keys still held on surviving workers must be handed
        # to the keys' new candidates; the departing worker's entries are
        # handed off on a graceful leave and lost on a failure.
        entries_migrated = key_state.entries_of(moved)
        entries_lost = 0
        if new_num_workers < old_num_workers:
            if event.loses_state:
                entries_lost = removed_entries
            else:
                entries_migrated += removed_entries

        head_keys_preserved = 0
        if policy.preserves_sender_state:
            current_head = getattr(probe, "current_head", None)
            if callable(current_head):
                head_keys_preserved = len(current_head())

        accountant.finish_event(
            record,
            moved_keys=moved,
            entries_migrated=entries_migrated,
            entries_lost=entries_lost,
            head_keys_preserved=head_keys_preserved,
        )

    def _build_result(self, num_messages: int) -> SimulationResult:
        tracker = self._tracker
        head_loads = tail_loads = None
        if self._config.track_head_tail:
            head_loads, tail_loads = tracker.head_tail_split()
        key_state = self._key_state
        if self._accountant is not None:
            # Switch records are appended as each source routes its share,
            # an order that depends on the execution mode; offsets do not.
            # (offset, kind) is a total order: switch offsets are unique per
            # source and plan events carry distinct kinds.
            self._accountant.report().events.sort(
                key=lambda record: (record.offset, record.kind)
            )
        return SimulationResult(
            scheme=self._scheme,
            num_workers=tracker.num_workers,
            num_sources=self._config.num_sources,
            num_messages=num_messages,
            final_imbalance=tracker.imbalance(),
            average_imbalance=(
                self._series.average if self._series.values else tracker.imbalance()
            ),
            worker_loads=tracker.loads,
            head_loads=head_loads,
            tail_loads=tail_loads,
            time_series=self._series if self._series.times else None,
            memory_entries=key_state.memory_entries,
            head_key_count=key_state.head_key_count,
            distinct_key_count=key_state.distinct_key_count,
            migration=(
                self._accountant.report() if self._accountant is not None else None
            ),
            switch_log=self._group.switch_log(sender_field="source"),
            worst_window_imbalance=(
                self._window_series.worst if self._window_series is not None else None
            ),
        )
