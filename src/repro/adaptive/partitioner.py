"""The adaptive partitioner: a hot-swappable delegate behind one scheme.

``AD`` is registered like any other grouping scheme but owns no routing rule
itself: every message goes through a *delegate* partitioner (PKG, D-C, W-C,
... — any registered scheme).  Alongside the delegate it feeds a monitor
SpaceSaving sketch, and at fixed per-source checkpoints it asks its
:class:`~repro.adaptive.policy.SwitchPolicy` whether the observed skew still
matches the delegate's rung on the scheme ladder.  A switch builds the new
scheme *from the live state of the old one* via the ``export_state`` /
``adopt_state`` contract — load vector, message counter, head table (seeded
from the monitor when the old delegate kept none), head-candidate caches —
so the new delegate continues mid-stream instead of cold-starting, and the
:class:`~repro.adaptive.tuner.ParameterTuner` retunes ``theta``/``d`` for it
from the same summary.

Determinism contract: checkpoints fire at exact per-source message counts
(multiples of ``check_interval``), and batches are split at those boundaries
— the same mechanism D-Choices uses for its solver checkpoints — so the
scalar, batched and columnar paths observe identical monitor/load state at
every decision point and make identical switches.  Every move is priced
through the bound :class:`~repro.elasticity.accountant.MigrationCostAccountant`
as a ``switch:`` / ``retune:`` event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.adaptive.policy import DriftMetrics, SwitchPolicy
from repro.adaptive.tuner import ParameterTuner
from repro.analysis.bounds import theta_range
from repro.exceptions import ConfigurationError
from repro.partitioning.base import Partitioner
from repro.partitioning.head_tail import DEFAULT_SKETCH_SLACK
from repro.partitioning.registry import canonical_name, create_partitioner
from repro.sketches.space_saving import SpaceSaving
from repro.types import Key, RoutingDecision, WorkerId

#: Schemes whose constructor takes (theta, warmup_messages).
_HEAD_AWARE = frozenset({"D-C", "W-C", "RR", "FIXED-D"})
#: Schemes whose constructor requires a choice count.
_NEEDS_CHOICES = frozenset({"FIXED-D", "GREEDY-D"})


@dataclass(frozen=True, slots=True)
class SwitchRecord:
    """One applied move of a single source's delegate."""

    position: int  #: messages this source had routed when the move fired
    from_scheme: str
    to_scheme: str
    theta: float | None  #: tuner-chosen theta of the new delegate (None = default)
    p1: float
    head_cardinality: int
    imbalance: float
    keys_moved: int
    entries_migrated: int
    head_keys_preserved: int

    @property
    def is_retune(self) -> bool:
        return self.from_scheme == self.to_scheme

    def to_dict(self) -> dict[str, Any]:
        return {
            "position": self.position,
            "from_scheme": self.from_scheme,
            "to_scheme": self.to_scheme,
            "theta": self.theta,
            "p1": self.p1,
            "head_cardinality": self.head_cardinality,
            "imbalance": self.imbalance,
            "keys_moved": self.keys_moved,
            "entries_migrated": self.entries_migrated,
            "head_keys_preserved": self.head_keys_preserved,
        }


class AdaptivePartitioner(Partitioner):
    """Scheme-switching partitioner (symbol ``AD``).

    Parameters
    ----------
    num_workers, seed:
        As for every scheme; the seed is shared with every delegate so all
        sources (and successive delegates) agree on candidate workers.
    policy:
        A :class:`SwitchPolicy`, a CLI spec string for
        :meth:`SwitchPolicy.parse`, or None for the defaults.
    initial_scheme:
        First delegate; defaults to the policy ladder's first rung.
    check_interval:
        Per-source messages between two policy checkpoints.
    theta:
        Head threshold of the *monitor* sketch (default ``1/(5n)``, tracking
        ``n`` across rescales); delegates get tuner-proposed thetas.
    warmup_messages:
        Messages before the first checkpoint may act, and the warmup handed
        to head-aware delegates built at stream start.
    retune_ratio:
        Rebuild a head-aware delegate in place (same scheme, new theta) when
        the tuner's proposal drifts from the delegate's theta by more than
        this factor; 0 disables in-place retuning.

    Examples
    --------
    >>> ad = AdaptivePartitioner(num_workers=8, seed=1, check_interval=500,
    ...                          warmup_messages=100)
    >>> for i in range(3000):
    ...     _ = ad.route("hot" if i % 3 else f"k{i}")
    >>> ad.current_scheme in ("PKG", "D-C", "W-C")
    True
    """

    name = "AD"

    def __init__(
        self,
        num_workers: int,
        seed: int = 0,
        policy: SwitchPolicy | str | None = None,
        initial_scheme: str | None = None,
        check_interval: int = 2000,
        theta: float | None = None,
        warmup_messages: int = 100,
        tuner: ParameterTuner | None = None,
        retune_ratio: float = 2.0,
    ) -> None:
        super().__init__(num_workers, seed)
        if isinstance(policy, str):
            policy = SwitchPolicy.parse(policy)
        self._policy = policy if policy is not None else SwitchPolicy()
        if check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        if warmup_messages < 0:
            raise ConfigurationError(
                f"warmup_messages must be >= 0, got {warmup_messages}"
            )
        if retune_ratio < 0.0:
            raise ConfigurationError(
                f"retune_ratio must be >= 0, got {retune_ratio}"
            )
        self._check_interval = check_interval
        self._warmup_messages = warmup_messages
        self._theta_defaulted = theta is None
        if theta is None:
            theta = theta_range(num_workers).default
        if not 0.0 < theta <= 1.0:
            raise ConfigurationError(f"theta must be in (0, 1], got {theta}")
        self._theta = theta
        self._tuner = tuner if tuner is not None else ParameterTuner()
        self._retune_ratio = retune_ratio
        self._monitor = SpaceSaving.for_threshold(theta, slack=DEFAULT_SKETCH_SLACK)
        scheme = initial_scheme if initial_scheme is not None else self._policy.ladder[0]
        self._current_scheme = canonical_name(scheme)
        self._delegate_theta: float | None = None
        self._delegate = self._build_delegate(self._current_scheme, None)
        self._switch_events: list[SwitchRecord] = []
        self._last_check = -1
        self._last_move = 0
        # Engine-bound migration accounting (optional): moves are priced as
        # records with offset ``position * offset_scale + offset_base``,
        # mapping the per-source position to an approximate stream offset.
        self._accountant = None
        self._offset_scale = 1
        self._offset_base = 0

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def current_scheme(self) -> str:
        """Canonical name of the delegate currently routing."""
        return self._current_scheme

    @property
    def delegate(self) -> Partitioner:
        return self._delegate

    @property
    def policy(self) -> SwitchPolicy:
        return self._policy

    @property
    def theta(self) -> float:
        """The monitor sketch's head threshold."""
        return self._theta

    @property
    def local_loads(self) -> list[int]:
        return self._delegate.local_loads

    @property
    def messages_routed(self) -> int:
        return self._delegate.messages_routed

    def switch_events(self) -> tuple[SwitchRecord, ...]:
        """Every move this source has applied, in stream order."""
        return tuple(self._switch_events)

    def current_head(self) -> dict[Key, int]:
        """The monitor's current head estimate, decoded to the key namespace."""
        head = self._monitor.heavy_hitters(self._theta)
        if not head:
            return {}
        key_of = self._id_dict.key_of
        return {key_of(kid): count for kid, count in head.items()}

    def bind_accountant(
        self, accountant, offset_scale: int = 1, offset_base: int = 0
    ) -> None:
        """Route every future move through ``accountant`` (engine hook)."""
        self._accountant = accountant
        self._offset_scale = offset_scale
        self._offset_base = offset_base

    # ------------------------------------------------------------------ #
    # routing: delegate + monitor feed + checkpointing
    # ------------------------------------------------------------------ #
    def route(self, key: Key) -> WorkerId:
        self._checkpoint()
        self._monitor.add(self._dictionary().intern(key))
        return self._delegate.route(key)

    def route_with_decision(self, key: Key) -> RoutingDecision:
        self._checkpoint()
        self._monitor.add(self._dictionary().intern(key))
        return self._delegate.route_with_decision(key)

    def _route_ids(self, ids):
        # Split at the per-source checkpoints, exactly where the scalar
        # path would evaluate the policy; each span feeds the monitor and
        # goes to the delegate's id kernel (same dictionary, see
        # _bind_dictionary), and the delegate's columns are concatenated.
        total = len(ids)
        parts: list[tuple[np.ndarray, np.ndarray | None]] = []
        interval = self._check_interval
        position = 0
        while position < total:
            self._checkpoint()
            span = min(
                total - position,
                interval - self._delegate.messages_routed % interval,
            )
            part = ids[position : position + span]
            self._monitor.add_all(part.tolist())
            parts.append(self._delegate._route_ids(part))
            position += span
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return np.empty(0, np.int64), None
        workers = np.concatenate([part for part, _ in parts])
        if all(heads is None for _, heads in parts):
            return workers, None
        return workers, np.concatenate(
            [np.zeros(len(part), bool) if heads is None else heads for part, heads in parts]
        )

    def _bind_dictionary(self, dictionary) -> None:
        # The monitor and the delegate's own head table must share one id
        # namespace: the monitor seeds delegates that kept no sketch.
        super()._bind_dictionary(dictionary)
        self._delegate._bind_dictionary(dictionary)

    def _select_worker(self, key: Key) -> WorkerId:  # pragma: no cover
        # Never reached: every public entry point delegates.  Kept to satisfy
        # the abstract contract.
        return self._delegate._select_worker(key)

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        return self._delegate.key_candidates(key)

    # ------------------------------------------------------------------ #
    # checkpoints and moves
    # ------------------------------------------------------------------ #
    def _checkpoint(self) -> None:
        routed = self._delegate.messages_routed
        if routed == 0 or routed % self._check_interval or routed == self._last_check:
            return
        self._last_check = routed
        self._evaluate(routed)

    def _evaluate(self, routed: int) -> None:
        monitor = self._monitor
        total = monitor.total
        if total < max(1, self._warmup_messages):
            return
        if routed - self._last_move < self._policy.min_dwell:
            return
        cardinality, hottest = monitor.head_signature(self._theta)
        p1 = hottest / total
        loads = self._delegate.local_loads
        mean = sum(loads) / len(loads)
        imbalance = max(0.0, (max(loads) - mean) / mean) if mean > 0 else 0.0
        metrics = DriftMetrics(
            p1=p1,
            head_cardinality=cardinality,
            imbalance=imbalance,
            num_workers=self._delegate.num_workers,
            messages=routed,
        )
        target = self._policy.decide(metrics, self._current_scheme)
        if target != self._current_scheme:
            self._move(target, routed, metrics)
            return
        if self._retune_ratio and self._current_scheme in _HEAD_AWARE:
            proposal = self._tuner.propose_theta(monitor, metrics.num_workers)
            current = self._delegate_theta
            if proposal is not None and current is not None:
                ratio = proposal / current if current > 0 else float("inf")
                if ratio >= self._retune_ratio or ratio <= 1.0 / self._retune_ratio:
                    self._move(self._current_scheme, routed, metrics)

    def _delegate_options(self, scheme: str, theta: float | None) -> dict[str, Any]:
        options: dict[str, Any] = {}
        if scheme in _HEAD_AWARE:
            options["warmup_messages"] = self._warmup_messages
            if theta is not None:
                options["theta"] = theta
        if scheme in _NEEDS_CHOICES:
            solution = self._tuner.propose_choices(
                self._monitor,
                theta if theta is not None else self._theta,
                self.num_workers,
            )
            options["num_choices"] = max(2, solution.num_choices)
        return options

    def _build_delegate(self, scheme: str, theta: float | None) -> Partitioner:
        self._delegate_theta = theta
        delegate = create_partitioner(
            scheme,
            num_workers=self._num_workers,
            seed=self._seed,
            **self._delegate_options(scheme, theta),
        )
        if self._id_dict is not None:
            delegate._bind_dictionary(self._id_dict)
        return delegate

    def _move(self, target: str, routed: int, metrics: DriftMetrics) -> None:
        """Swap the delegate for ``target``, transplanting its live state."""
        old = self._delegate
        state = old.export_state()
        if "sketch" not in state:
            # The old delegate kept no head table: seed the new one from the
            # monitor so it starts hot instead of re-learning the head.
            state["sketch"] = self._monitor.export_state()
        theta = (
            self._tuner.propose_theta(self._monitor, metrics.num_workers)
            if target in _HEAD_AWARE
            else None
        )
        new = self._build_delegate(target, theta)
        new.adopt_state(state)
        keys_moved, entries_migrated = self._move_costs(old, new)
        record = SwitchRecord(
            position=routed,
            from_scheme=self._current_scheme,
            to_scheme=target,
            theta=theta,
            p1=metrics.p1,
            head_cardinality=metrics.head_cardinality,
            imbalance=metrics.imbalance,
            keys_moved=keys_moved,
            entries_migrated=entries_migrated,
            head_keys_preserved=metrics.head_cardinality,
        )
        self._switch_events.append(record)
        if self._accountant is not None:
            kind = "retune" if record.is_retune else "switch"
            self._accountant.record_switch(
                offset=routed * self._offset_scale + self._offset_base,
                description=f"{kind}:{record.from_scheme}->{record.to_scheme}",
                num_workers=metrics.num_workers,
                keys_moved=keys_moved,
                entries_migrated=entries_migrated,
                head_keys_preserved=record.head_keys_preserved,
            )
        self._delegate = new
        self._current_scheme = target
        self._last_move = routed

    def _move_costs(self, old: Partitioner, new: Partitioner) -> tuple[int, int]:
        """Keys whose candidate sets change across the swap, and the state
        entries that must move with them.

        Measured over the monitor's monitored keys — the only keys hot
        enough for their placement to differ between two rungs of a ladder
        sharing the two-choice tail.  Each moved key is charged one state
        entry per worker it could previously reach (its old candidate set):
        that is the operator state that must be consolidated onto the new
        candidates.
        """
        keys_moved = 0
        entries_migrated = 0
        for entry in self._monitor.entries():
            key = self._id_dict.key_of(entry.key)
            before = frozenset(old.key_candidates(key))
            if not before:
                continue
            after = frozenset(new.key_candidates(key))
            if before != after:
                keys_moved += 1
                entries_migrated += len(before)
        return keys_moved, entries_migrated

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        super().reset()
        self._monitor.reset()
        self._delegate.reset()
        self._last_check = -1
        self._last_move = 0
        # The switch log survives a reset: it is this source's history, read
        # by the engine after the run (a rehash-policy rescale resets the
        # sources mid-stream and must not erase it).

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        self._delegate.rescale(new_num_workers)
        if self._theta_defaulted:
            self._theta = theta_range(new_num_workers).default
            import math

            required = max(1, math.ceil(DEFAULT_SKETCH_SLACK / self._theta))
            if self._monitor.capacity < required:
                self._monitor.grow(required)

    # ------------------------------------------------------------------ #
    # transplantable state (AD itself can be a donor/adopter)
    # ------------------------------------------------------------------ #
    def _export_structures(self, state: dict) -> None:
        state["adaptive"] = {
            "current_scheme": self._current_scheme,
            "delegate_theta": self._delegate_theta,
            "delegate": self._delegate.export_state(),
            "monitor": self._monitor.export_state(),
            "last_check": self._last_check,
            "last_move": self._last_move,
            "switches": list(self._switch_events),
        }

    def _adopt_structures(self, state) -> None:
        payload = state.get("adaptive")
        if payload is None:
            # Donor was a plain scheme: hand its state to the delegate and
            # seed the monitor from its sketch when it kept one.
            self._delegate.adopt_state(state)
            sketch_state = state.get("sketch")
            if sketch_state is not None:
                self._monitor = SpaceSaving.from_state(
                    sketch_state, capacity=max(self._monitor.capacity, int(sketch_state["capacity"]))
                )
            return
        self._current_scheme = payload["current_scheme"]
        self._delegate = self._build_delegate(
            self._current_scheme, payload["delegate_theta"]
        )
        self._delegate.adopt_state(payload["delegate"])
        self._monitor = SpaceSaving.from_state(payload["monitor"])
        self._last_check = payload["last_check"]
        self._last_move = payload["last_move"]
        self._switch_events = list(payload["switches"])


__all__ = ["AdaptivePartitioner", "SwitchRecord"]
