"""The partitioning simulation engine.

The engine wires together:

* a workload (an iterable of keys);
* ``s`` sources, each holding its own partitioner instance (so load
  estimation and heavy-hitter tracking are local to the sender, as in the
  paper);
* ``n`` workers, represented by the global :class:`LoadTracker` and a
  per-worker set of keys (to measure the worker-side memory of
  Section IV-B).

The input stream is distributed over sources round-robin, which models the
shuffle-grouped edge between the spout and the sources in the evaluation
setup (Section V-A).

When the configuration carries a rescale plan, the engine replays its
worker join/leave/fail events at their exact global stream offsets — in the
chunked loop by splitting chunks at event boundaries, so chunked and scalar
runs stay byte-identical — applies the plan's policy to every source's
partitioner, resizes the tracker and the worker-side key state, and feeds a
:class:`~repro.elasticity.accountant.MigrationCostAccountant` that measures
keys moved, state migrated/lost and tuples misrouted.
"""

from __future__ import annotations

from typing import Iterable

from repro.elasticity.accountant import MigrationCostAccountant
from repro.elasticity.events import RescaleEvent
from repro.elasticity.policies import get_policy
from repro.exceptions import ConfigurationError, SimulationError
from repro.partitioning.base import Partitioner
from repro.partitioning.registry import canonical_name, create_partitioner
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import (
    ImbalanceTimeSeries,
    LoadTracker,
    WindowedImbalanceSeries,
)
from repro.simulation.results import SimulationResult
from repro.types import Key
from repro.workloads.columnar import iter_batches_columnar


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
        self._sources = self._build_sources()
        self._tracker = LoadTracker(
            config.num_workers, track_head_tail=config.track_head_tail
        )
        self._series = ImbalanceTimeSeries(interval=config.track_interval)
        # worker -> set of keys that hit it (memory measurement)
        self._worker_keys: list[set[Key]] = [
            set() for _ in range(config.num_workers)
        ]
        self._head_keys: set[Key] = set()
        # In columnar mode the worker-side key state holds interned ids;
        # this is the dictionary that decodes them (None in scalar mode).
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
            for source in self._sources
            if callable(getattr(source, "bind_accountant", None))
        ]
        if adaptive and self._accountant is None:
            self._accountant = MigrationCostAccountant(
                policy=get_policy(config.rescale_policy),
                migration_window=config.migration_window,
            )
        for index, source in enumerate(self._sources):
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
    # construction helpers
    # ------------------------------------------------------------------ #
    def _build_sources(self) -> list[Partitioner]:
        """One partitioner per source.

        All sources share the hashing seed (``config.seed``) so they agree on
        each key's candidate workers — this is what makes routing-table-free
        schemes possible.  Schemes with per-source randomness that must
        differ across sources (shuffle grouping's starting offset) receive a
        distinct seed instead, because nothing about SG requires agreement.
        """
        config = self._config
        sources = []
        for index in range(config.num_sources):
            options = dict(config.scheme_options)
            seed = config.seed
            if self._scheme == "SG":
                seed = config.seed + index
            sources.append(
                create_partitioner(
                    self._scheme,
                    num_workers=config.num_workers,
                    seed=seed,
                    **options,
                )
            )
        return sources

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def sources(self) -> list[Partitioner]:
        return self._sources

    @property
    def tracker(self) -> LoadTracker:
        return self._tracker

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, keys: Iterable[Key]) -> SimulationResult:
        """Consume the workload and return the aggregated result.

        Two loops, one per execution mode.  ``scalar`` is the oracle: one
        ``route_with_decision`` per message.  ``columnar:N`` processes the
        stream in chunks of interned key ids
        (:class:`~repro.workloads.columnar.ColumnarBatch`): each chunk is
        split over the sources round-robin (by global message index, exactly
        as the scalar loop assigns them), every source routes its share
        through ``route_batch_columnar``, and the decisions are
        re-interleaved back into stream order before metrics are recorded.
        Sources share no state, so the per-source key subsequences — and
        therefore every routing decision and every recorded metric — are
        identical to one-at-a-time routing.
        """
        if self._config.mode.is_scalar:
            index = self._run_sequential(keys)
        else:
            index = self._run_chunked(keys)
        if index == 0:
            raise ConfigurationError("cannot simulate an empty workload")
        self._series.final(self._tracker)
        return self._build_result(index)

    def _run_sequential(self, keys: Iterable[Key]) -> int:
        num_sources = self._config.num_sources
        sources = self._sources
        tracker = self._tracker
        series = self._series
        window_series = self._window_series
        worker_keys = self._worker_keys
        head_keys = self._head_keys
        events = self._pending_events
        accountant = self._accountant

        index = 0
        for key in keys:
            while events and events[0].offset <= index:
                self._apply_rescale(events.pop(0))
            source = sources[index % num_sources]
            decision = source.route_with_decision(key)
            if accountant is not None and accountant.window_open:
                accountant.tick(key)
            tracker.record(decision.worker, is_head=decision.is_head)
            worker_keys[decision.worker].add(key)
            if decision.is_head:
                head_keys.add(key)
            series.maybe_record(tracker)
            if window_series is not None:
                window_series.maybe_record(tracker)
            index += 1
        return index

    def _run_chunked(self, keys: Iterable[Key]) -> int:
        """Chunked execution over interned key-id arrays.

        Each chunk is a :class:`ColumnarBatch` whose ids were interned once
        at the source.  Workloads exposing ``iter_batches_columnar`` emit
        batches natively; any other iterable is wrapped through the generic
        chunker.  Chunks are split at rescale-event boundaries: every
        message with a global index >= an event's offset must be routed by
        the post-event topology, exactly as in the scalar loop.
        """
        config = self._config
        chunk_size = config.mode.batch_size * config.num_sources
        events = self._pending_events

        if hasattr(keys, "iter_batches_columnar"):
            batches = keys.iter_batches_columnar(chunk_size)
        else:
            batches = iter_batches_columnar(keys, chunk_size)

        index = 0
        for batch in batches:
            if not len(batch):
                continue
            self._columnar_dict = batch.dictionary
            position = 0
            remaining = len(batch)
            while remaining:
                while events and events[0].offset <= index:
                    self._apply_rescale(events.pop(0))
                if events:
                    span = min(remaining, events[0].offset - index)
                else:
                    span = remaining
                if position == 0 and span == len(batch):
                    part = batch
                else:
                    part = batch.slice(position, position + span)
                self._route_id_span(part, index)
                index += span
                position += span
                remaining -= span
        return index

    def _route_id_span(self, batch, index: int) -> None:
        """Route one event-free span of the stream through all sources.

        The per-source shares are strided views over the id array, split
        round-robin by *global* index as the scalar loop does; the shift
        keeps the mapping right when a span boundary (from a workload's own
        chunk granularity, or from a rescale event splitting the chunk) is
        not a multiple of ``num_sources``.  The worker-side key state
        accumulates ids instead of keys (a bijection, so every set-valued
        metric — memory entries, distinct head keys — is unchanged), and the
        misroute accountant ticks in id space too, consistent with the
        id-space moved-key sets of :meth:`_apply_rescale`.
        """
        num_sources = self._config.num_sources
        sources = self._sources
        tracker = self._tracker
        series = self._series
        window_series = self._window_series
        worker_keys = self._worker_keys
        head_keys = self._head_keys
        accountant = self._accountant

        shift = index % num_sources
        workers = []
        flags = []
        for source_index, source in enumerate(sources):
            sub = batch.strided((source_index - shift) % num_sources, num_sources)
            source_flags: list[bool] = []
            workers.append(source.route_batch_columnar(sub, head_flags=source_flags))
            flags.append(source_flags)
        positions = [0] * num_sources
        for kid in batch.ids.tolist():
            source_index = index % num_sources
            position = positions[source_index]
            positions[source_index] = position + 1
            worker = workers[source_index][position]
            is_head = flags[source_index][position]
            if accountant is not None and accountant.window_open:
                accountant.tick(kid)
            tracker.record(worker, is_head=is_head)
            worker_keys[worker].add(kid)
            if is_head:
                head_keys.add(kid)
            series.maybe_record(tracker)
            if window_series is not None:
                window_series.maybe_record(tracker)
            index += 1

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def _candidate_snapshot(
        self, probe: Partitioner, observed: set[Key]
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
        sources = self._sources
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
        worker_keys = self._worker_keys
        observed: set[Key] = set().union(*worker_keys) if worker_keys else set()
        before = self._candidate_snapshot(probe, observed)

        policy = accountant.policy
        for source in sources:
            policy.apply(source, new_num_workers)
        self._tracker.rescale(new_num_workers)

        removed_entries = 0
        if new_num_workers > old_num_workers:
            worker_keys.extend(
                set() for _ in range(new_num_workers - old_num_workers)
            )
        else:
            for _ in range(old_num_workers - new_num_workers):
                removed_entries += len(worker_keys[-1])
                worker_keys.pop()

        after = self._candidate_snapshot(probe, observed)
        moved = frozenset(
            key for key in observed if before[key] and before[key] != after[key]
        )
        # State of moved keys still held on surviving workers must be handed
        # to the keys' new candidates; the departing worker's entries are
        # handed off on a graceful leave and lost on a failure.
        entries_migrated = sum(
            1
            for keys_on_worker in worker_keys
            for key in keys_on_worker
            if key in moved
        )
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

    def _collect_switch_log(self) -> list[dict]:
        """Gather per-source switch events into one stream-ordered log.

        Sorted by (per-source position, source index): positions measure
        the same per-source clock in every execution mode, so the log —
        unlike raw append order, which depends on how batches interleave
        the sources — is byte-identical across scalar/batched/columnar.
        """
        entries: list[tuple[int, int, dict]] = []
        for source_index, source in enumerate(self._sources):
            events = getattr(source, "switch_events", None)
            if not callable(events):
                continue
            for record in events():
                row = record.to_dict()
                row["source"] = source_index
                entries.append((record.position, source_index, row))
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return [row for _, _, row in entries]

    def _build_result(self, num_messages: int) -> SimulationResult:
        tracker = self._tracker
        head_loads = tail_loads = None
        if self._config.track_head_tail:
            head_loads, tail_loads = tracker.head_tail_split()
        memory_entries = sum(len(keys) for keys in self._worker_keys)
        distinct_keys = len(set().union(*self._worker_keys)) if self._worker_keys else 0
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
            memory_entries=memory_entries,
            head_key_count=len(self._head_keys),
            distinct_key_count=distinct_keys,
            migration=(
                self._accountant.report() if self._accountant is not None else None
            ),
            switch_log=self._collect_switch_log(),
            worst_window_imbalance=(
                self._window_series.worst if self._window_series is not None else None
            ),
        )
