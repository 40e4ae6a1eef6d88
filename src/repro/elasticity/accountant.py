"""Migration-cost accounting for rescale events.

Load balance is only half of the elasticity story; the other half is what a
rescale *costs*.  The accountant measures, per event and in total:

* **keys moved** — observed keys whose candidate worker set changed across
  the event (for single-owner schemes: whose owner changed).  This is the
  quantity consistent hashing minimises and modulo re-hashing maximises.
* **state entries migrated / lost** — per-worker operator state entries
  (key, worker) that must be handed to another worker (join, leave) or that
  vanish with a failed worker.  Scaled by ``state_bytes_per_entry`` into a
  byte estimate of the migration traffic.
* **tuples misrouted** — tuples routed to a moved key during the policy's
  transition window, i.e. tuples that arrive at a worker which does not
  hold the key's state yet (only the incremental-migration policy has a
  non-zero window).

The simulation engine drives the accountant: it snapshots candidate sets
around each event, reports the per-worker key placement, and ticks the
misroute window once per routed tuple (or once per routed id array).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.elasticity.events import RescaleEvent
from repro.elasticity.policies import RescalePolicy
from repro.exceptions import SimulationError

#: Default size estimate of one per-key operator state entry, in bytes.
#: Matches a small aggregation state (a counter plus key interning overhead);
#: experiments that model heavier operators override it.
DEFAULT_STATE_BYTES_PER_ENTRY = 64


@dataclass(slots=True)
class RescaleEventRecord:
    """Everything measured about one applied rescale event."""

    offset: int
    kind: str
    old_num_workers: int
    new_num_workers: int
    keys_moved: int = 0
    entries_migrated: int = 0
    entries_lost: int = 0
    tuples_misrouted: int = 0
    misroute_window: int = 0
    #: Sketch head-table entries carried across the event (0 when the
    #: policy rebuilds the senders from scratch).
    head_keys_preserved: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "offset": self.offset,
            "kind": self.kind,
            "old_num_workers": self.old_num_workers,
            "new_num_workers": self.new_num_workers,
            "keys_moved": self.keys_moved,
            "entries_migrated": self.entries_migrated,
            "entries_lost": self.entries_lost,
            "tuples_misrouted": self.tuples_misrouted,
            "misroute_window": self.misroute_window,
            "head_keys_preserved": self.head_keys_preserved,
        }


@dataclass(slots=True)
class MigrationReport:
    """Aggregated migration costs of one simulation run."""

    policy: str
    state_bytes_per_entry: int = DEFAULT_STATE_BYTES_PER_ENTRY
    events: list[RescaleEventRecord] = field(default_factory=list)

    @property
    def events_applied(self) -> int:
        return len(self.events)

    @property
    def keys_moved(self) -> int:
        return sum(record.keys_moved for record in self.events)

    @property
    def entries_migrated(self) -> int:
        return sum(record.entries_migrated for record in self.events)

    @property
    def entries_lost(self) -> int:
        return sum(record.entries_lost for record in self.events)

    @property
    def tuples_misrouted(self) -> int:
        return sum(record.tuples_misrouted for record in self.events)

    @property
    def bytes_migrated(self) -> int:
        return self.entries_migrated * self.state_bytes_per_entry

    @property
    def bytes_lost(self) -> int:
        return self.entries_lost * self.state_bytes_per_entry

    def summary(self) -> dict[str, Any]:
        """Flat totals, convenient for result rows and CLI printing."""
        return {
            "rescale_policy": self.policy,
            "rescale_events": self.events_applied,
            "keys_moved": self.keys_moved,
            "entries_migrated": self.entries_migrated,
            "entries_lost": self.entries_lost,
            "bytes_migrated": self.bytes_migrated,
            "bytes_lost": self.bytes_lost,
            "tuples_misrouted": self.tuples_misrouted,
        }

    def to_dict(self) -> dict[str, Any]:
        payload = self.summary()
        payload["state_bytes_per_entry"] = self.state_bytes_per_entry
        payload["events"] = [record.to_dict() for record in self.events]
        return payload


class MigrationCostAccountant:
    """Collects migration costs while the simulation engine replays a plan.

    Usage protocol (driven by the engine)::

        record = accountant.begin_event(event, old_n, new_n)
        ... engine applies the policy, adjusts state, computes moved keys ...
        accountant.finish_event(record, moved_keys=..., ...)
        ... per routed tuple: accountant.tick(key) ...
        ... or, per routed id array: accountant.tick_span(ids) ...
    """

    def __init__(
        self,
        policy: RescalePolicy,
        migration_window: int = 0,
        state_bytes_per_entry: int = DEFAULT_STATE_BYTES_PER_ENTRY,
    ) -> None:
        if state_bytes_per_entry < 1:
            raise SimulationError(
                f"state_bytes_per_entry must be >= 1, got {state_bytes_per_entry}"
            )
        self._policy = policy
        self._migration_window = migration_window
        self._report = MigrationReport(
            policy=policy.name, state_bytes_per_entry=state_bytes_per_entry
        )
        # Transition-window state: tuples remaining and the moved-key set
        # whose tuples count as misrouted.  A newer event supersedes any
        # still-open window (its moved keys are the ones in flux now).
        self._window_remaining = 0
        self._window_keys: frozenset[Any] = frozenset()
        self._window_record: RescaleEventRecord | None = None

    @property
    def policy(self) -> RescalePolicy:
        return self._policy

    @property
    def window_open(self) -> bool:
        return self._window_remaining > 0

    def begin_event(
        self, event: RescaleEvent, old_num_workers: int, new_num_workers: int
    ) -> RescaleEventRecord:
        """Open the record of one event (costs are filled in afterwards)."""
        record = RescaleEventRecord(
            offset=event.offset,
            kind=event.kind,
            old_num_workers=old_num_workers,
            new_num_workers=new_num_workers,
        )
        self._report.events.append(record)
        return record

    def finish_event(
        self,
        record: RescaleEventRecord,
        moved_keys: frozenset[Any],
        entries_migrated: int,
        entries_lost: int,
        head_keys_preserved: int,
    ) -> None:
        """Fill in the measured costs and open the misroute window (if any)."""
        record.keys_moved = len(moved_keys)
        record.entries_migrated = entries_migrated
        record.entries_lost = entries_lost
        record.head_keys_preserved = head_keys_preserved
        window = self._policy.misroute_window(self._migration_window)
        record.misroute_window = window
        if window > 0 and moved_keys:
            self._window_remaining = window
            self._window_keys = moved_keys
            self._window_record = record
        else:
            self._close_window()

    def _close_window(self) -> None:
        self._window_remaining = 0
        self._window_keys = frozenset()
        self._window_record = None

    def tick(self, key: Any) -> None:
        """Account one routed tuple while a transition window is open.

        Call only while :attr:`window_open` is true (the engine guards the
        call so the per-tuple cost is a single integer check when no window
        is open).
        """
        self._window_remaining -= 1
        if key in self._window_keys:
            assert self._window_record is not None
            self._window_record.tuples_misrouted += 1
        if self._window_remaining <= 0:
            self._close_window()

    def tick_span(self, ids: np.ndarray) -> None:
        """Account a span of routed tuples, given as their key-id array.

        Equivalent to one guarded :meth:`tick` per id, in order: only the
        ids that still fall inside the open window are looked at, so a span
        that outlasts the window closes it mid-span and a closed window
        costs nothing.
        """
        if self._window_remaining <= 0:
            return
        live = ids[: self._window_remaining].tolist()
        self._window_remaining -= len(live)
        assert self._window_record is not None
        self._window_record.tuples_misrouted += sum(
            map(self._window_keys.__contains__, live)
        )
        if self._window_remaining <= 0:
            self._close_window()

    def record_switch(
        self,
        offset: int,
        description: str,
        num_workers: int,
        keys_moved: int,
        entries_migrated: int,
        head_keys_preserved: int,
    ) -> RescaleEventRecord:
        """Append the record of one adaptive scheme switch (or retune).

        A switch moves no workers — old and new counts are equal — but it
        does move head keys between candidate sets, which is the same
        migration currency a rescale event is measured in; recording both in
        one report keeps the cost of adaptivity visible next to the cost of
        elasticity.  ``description`` becomes the record's ``kind`` (e.g.
        ``"switch:PKG->D-C"``).
        """
        record = RescaleEventRecord(
            offset=offset,
            kind=description,
            old_num_workers=num_workers,
            new_num_workers=num_workers,
            keys_moved=keys_moved,
            entries_migrated=entries_migrated,
            head_keys_preserved=head_keys_preserved,
        )
        self._report.events.append(record)
        return record

    def record_recovery(
        self,
        offset: int,
        description: str,
        num_workers: int,
        keys_moved: int,
        entries_migrated: int,
        entries_lost: int = 0,
        head_keys_preserved: int = 0,
    ) -> RescaleEventRecord:
        """Append the record of one cluster-runtime recovery action.

        A supervised worker recovery moves no workers — the slot survives —
        but it *is* a migration event in the same currency as a rescale:
        keys redirected to survivors while the slot was down are moved
        keys, the dictionary entries replayed into the replacement's
        replica are migrated state entries, and a degraded slot's replica
        is lost state.  Recording recoveries in the same report keeps the
        price of fault tolerance visible next to the price of elasticity
        and adaptivity.  ``description`` becomes the record's ``kind``
        (e.g. ``"recover:w2"``, ``"degrade:w1"``).
        """
        record = RescaleEventRecord(
            offset=offset,
            kind=description,
            old_num_workers=num_workers,
            new_num_workers=num_workers,
            keys_moved=keys_moved,
            entries_migrated=entries_migrated,
            entries_lost=entries_lost,
            head_keys_preserved=head_keys_preserved,
        )
        self._report.events.append(record)
        return record

    def report(self) -> MigrationReport:
        return self._report
