"""Abstract base class shared by every grouping scheme.

A partitioner lives inside one *source* (upstream operator instance).  It
keeps a local load vector — its own estimate of how much work it has sent to
each downstream worker — and picks a worker for every outgoing message.  This
mirrors the paper's setting exactly: load estimation is local to the sender
(Section IV-B, "Overhead on Sources") and the candidate workers of a key are
derived from shared hash functions rather than routing tables.

Every scheme has exactly two routing implementations, each with one role:

* the *scalar oracle* — :meth:`_select_worker`, reached through
  :meth:`route` and :meth:`route_with_decision` — is Algorithm 1 written one
  message at a time.  It is the short, readable reference every test pins
  the fast path against.  A head/tail scheme records whether it placed a
  head key in ``_routed_head``, which :meth:`route_with_decision` hands out
  as a :class:`~repro.types.RoutingDecision` (worker, head flag).
* the *id kernel* — :meth:`_route_ids` — routes a whole ``int64`` array of
  interned key ids and is the only batched implementation.  It answers in
  columns — an ``int64`` worker array and a ``bool`` head mask (``None``
  when the batch held no head message) — which ``SenderGroup.route_span``
  scatters and the simulation engine accounts without converting.  Both
  public batched entry points end there and convert once, to the lists
  they return: :meth:`route_batch_columnar` hands over the ids a columnar
  stream already carries, :meth:`route_batch` interns its key list first.
  The kernel must pick exactly the workers the oracle would.

One id namespace per partitioner: key ids come from a single
:class:`~repro.workloads.columnar.KeyDictionary` — the stream's, once a
columnar batch has bound one, a private one otherwise — and everything a
scheme remembers about keys (the SpaceSaving head table, the head candidate
cache) is keyed by those ids on *every* path, the scalar oracle included.
That is what makes any interleaving of ``route``, ``route_batch`` and
``route_batch_columnar`` on one partitioner equal to the pure scalar run.
The binding lasts until :meth:`reset`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import Key, RoutingDecision, WorkerId
from repro.workloads.columnar import KeyDictionary


#: ``route_batch`` hands key lists up to this long to the scalar oracle (see
#: its docstring): the per-sender lists on the dataflow runtime's internal
#: edges are often a handful of keys.  The crossover sits between 16 and 32
#: keys for every scheme.
_ORACLE_FRAGMENT = 24


@dataclass(slots=True)
class PartitionerState:
    """Mutable per-source state every scheme maintains.

    Attributes
    ----------
    loads:
        Local load vector: number of messages this source has sent to each
        worker.  This is the only load information available when routing,
        as in the paper.
    messages_routed:
        Total number of messages routed by this source.
    """

    loads: list[int] = field(default_factory=list)
    messages_routed: int = 0

    def record(self, worker: WorkerId) -> None:
        self.loads[worker] += 1
        self.messages_routed += 1


class Partitioner(abc.ABC):
    """Base class for grouping schemes.

    Parameters
    ----------
    num_workers:
        Number of downstream operator instances ``n``.
    seed:
        Seed for any hashing or randomness inside the scheme.  Two
        partitioners with the same seed make identical hash-based candidate
        choices, which is how independent sources agree on where a key may
        go.
    """

    #: Short name used by the registry, tables and plots (e.g. "PKG", "D-C").
    name: str = "base"

    #: Whether the last :meth:`_select_worker` placed a head key.  Only the
    #: head/tail schemes set it; every other scheme routes tail keys only.
    _routed_head: bool = False

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        self._num_workers = num_workers
        self._seed = seed
        self._state = PartitionerState(loads=[0] * num_workers)
        # The dictionary that issues this partitioner's key ids (see the
        # module docstring); None until the first batch or interned key.
        self._id_dict: KeyDictionary | None = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def local_loads(self) -> list[int]:
        """This source's view of the per-worker load (messages it has sent)."""
        return list(self._state.loads)

    @property
    def messages_routed(self) -> int:
        return self._state.messages_routed

    def route(self, key: Key) -> WorkerId:
        """Route one message with key ``key``; returns the destination worker."""
        worker = self._select_worker(key)
        self._state.record(worker)
        return worker

    def route_batch(
        self, keys: Sequence[Key], head_flags: list[bool] | None = None
    ) -> list[WorkerId]:
        """Route a whole batch of keys; returns one worker id per key.

        Produces the exact same worker sequence (and final load vector) as
        ``[self.route(key) for key in keys]`` — batching is purely a
        performance optimisation, never a semantic change.  The keys are
        interned through the partitioner's dictionary and routed by the id
        kernel, the same one :meth:`route_batch_columnar` runs.  A fragment
        of a few keys (one sender's share of an internal edge of the dataflow
        runtime) goes to the scalar oracle instead: interning and the
        kernel's numpy round trips cost a fixed few microseconds per call,
        more than the oracle spends on a handful of messages.

        ``head_flags``, when given, is a caller-owned list that receives one
        boolean per key telling whether the key was classified as a heavy
        hitter at routing time (always ``False`` for head-oblivious schemes).
        This lets batch consumers keep head/tail accounting without a
        per-message :meth:`route_with_decision`.
        """
        if len(keys) <= _ORACLE_FRAGMENT:
            return self._route_scalar(keys, head_flags)
        return self._listed(
            self._route_ids(self._dictionary().intern_keys(keys)), head_flags
        )

    def _route_scalar(
        self, keys: Sequence[Key], head_flags: list[bool] | None
    ) -> list[WorkerId]:
        """The scalar oracle over a key sequence (the batched contract)."""
        if head_flags is None:
            return [self.route(key) for key in keys]
        out: list[WorkerId] = []
        for key in keys:
            decision = self.route_with_decision(key)
            out.append(decision.worker)
            head_flags.append(decision.is_head)
        return out

    def route_batch_columnar(
        self, batch, head_flags: list[bool] | None = None
    ) -> list[WorkerId]:
        """Route one :class:`~repro.workloads.columnar.ColumnarBatch`.

        Contract: identical workers, loads and head flags as
        ``route_batch(batch.keys(), head_flags)``.  The first batch binds
        its dictionary as this partitioner's id namespace, after which ids
        go to the kernel untouched; a batch from any *other* dictionary is
        translated key by key into the bound namespace — correct, but it
        forfeits the point of interning once, so streams should not be mixed
        without a :meth:`reset`.
        """
        return self._listed(self._route_columnar(batch), head_flags)

    def _route_columnar(self, batch) -> tuple[np.ndarray, np.ndarray | None]:
        """Bind ``batch``'s dictionary on first use, then run the id kernel.

        The array form of :meth:`route_batch_columnar`, for consumers that
        keep the decisions as columns (``SenderGroup.route_span``).
        """
        dictionary = self._id_dict
        if dictionary is None:
            dictionary = batch.dictionary
            self._bind_dictionary(dictionary)
        if batch.dictionary is dictionary:
            return self._route_ids(batch.ids)
        return self._route_ids(dictionary.intern_keys(batch.keys()))

    def route_with_decision(self, key: Key) -> RoutingDecision:
        """:meth:`route` plus whether ``key`` was routed as a head key."""
        worker = self.route(key)
        return RoutingDecision(worker, self._routed_head)

    def reset(self) -> None:
        """Forget all per-source state (loads, sketches, the id namespace)."""
        self._state = PartitionerState(loads=[0] * self._num_workers)
        self._id_dict = None

    def rescale(self, new_num_workers: int) -> None:
        """Resize the downstream worker set to ``new_num_workers``.

        Workers are always the contiguous ids ``0 .. n-1``: growing appends
        new ids at the tail, shrinking removes the highest ids (see
        :mod:`repro.elasticity.events` for why).  The local load vector of
        surviving workers is preserved — the sender keeps what it learned —
        and new workers start with zero estimated load.  Scheme-specific
        routing structures are adjusted by :meth:`_rescale_structures`,
        which every scheme holding sizing-dependent state **must** override
        (the base class holds none, so its hook is a no-op): the hash-based
        schemes rebuild their families for the new bucket count, while
        consistent grouping and the head/tail schemes use incremental
        implementations (the ring keeps its arcs, the sketches keep their
        head tables).
        """
        if new_num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {new_num_workers}"
            )
        old_num_workers = self._num_workers
        if new_num_workers == old_num_workers:
            return
        self._num_workers = new_num_workers
        loads = self._state.loads
        if new_num_workers > old_num_workers:
            loads.extend([0] * (new_num_workers - old_num_workers))
        else:
            del loads[new_num_workers:]
        self._rescale_structures(old_num_workers, new_num_workers)

    def _rescale_structures(self, old_num_workers: int, new_num_workers: int) -> None:
        """Adjust scheme-internal structures after a worker-count change.

        The base class holds no hashing state, so this is a no-op; schemes
        with hash families rebuild (or incrementally adjust) them here.
        """

    # ------------------------------------------------------------------ #
    # transplantable routing state (adaptive scheme switching)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict[str, Any]:
        """Snapshot of this partitioner's live, transplantable routing state.

        The base payload is what every scheme maintains — the local load
        vector and the message counter; schemes add their own entries via
        :meth:`_export_structures` (the SpaceSaving head table, scheme
        cursors, solver caches, head-candidate caches).  The dict is an
        in-process handoff, not a serialisation format: live objects (the
        id dictionary, which donor and adopter then share) are carried by
        reference.

        Exporting never mutates the donor, so a snapshot can be taken
        speculatively and discarded.
        """
        state: dict[str, Any] = {
            "scheme": self.name,
            "num_workers": self._num_workers,
            "seed": self._seed,
            "loads": list(self._state.loads),
            "messages_routed": self._state.messages_routed,
            "id_dictionary": self._id_dict,
        }
        self._export_structures(state)
        return state

    def adopt_state(self, state: Mapping[str, Any]) -> None:
        """Continue from another partitioner's :meth:`export_state` snapshot.

        The adopter keeps its own construction parameters (seed, theta,
        choice counts — those are the new scheme's identity) and takes over
        the donor's *learned* state: the load vector, the message counter
        and whatever scheme-specific entries it understands via
        :meth:`_adopt_structures`.  Entries the adopting scheme has no use
        for (a cursor it does not keep) are ignored, which is what makes any
        scheme constructible from any other scheme's live state.

        Adopting a snapshot exported from the *same* scheme with the same
        construction parameters is byte-identical to never having exported:
        every future routing decision matches the donor's (property-pinned
        in ``tests/property/test_state_roundtrip.py``).
        """
        loads = list(state["loads"])
        if len(loads) != self._num_workers:
            raise ConfigurationError(
                f"cannot adopt state for {len(loads)} workers into a "
                f"{self._num_workers}-worker partitioner"
            )
        self._state = PartitionerState(
            loads=loads, messages_routed=int(state["messages_routed"])
        )
        # Adopted key-id state (a head table) is only meaningful in the
        # namespace it was recorded in.
        dictionary = state.get("id_dictionary")
        if dictionary is not None:
            self._bind_dictionary(dictionary)
        self._adopt_structures(state)

    def _export_structures(self, state: dict[str, Any]) -> None:
        """Add scheme-specific entries to an :meth:`export_state` snapshot.

        The base class holds nothing beyond the load vector, so this is a
        no-op hook.
        """

    def _adopt_structures(self, state: Mapping[str, Any]) -> None:
        """Consume the scheme-specific entries this scheme understands.

        Must tolerate missing entries — the donor may have been any scheme —
        by keeping the adopter's own freshly constructed structures.
        """

    def key_candidates(self, key: Key) -> tuple[WorkerId, ...]:
        """The workers ``key`` may currently be routed to — *pure*.

        Unlike :meth:`_select_worker`, this must not mutate any state (no
        sketch updates, no load changes): the elasticity accountant calls it
        before and after a rescale event for every observed key to decide
        which keys moved.  An empty tuple means the key has no placement
        affinity (shuffle grouping routes anywhere), so it never counts as
        moved.
        """
        return ()

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _select_worker(self, key: Key) -> WorkerId:
        """Pick the destination worker for ``key`` (no load bookkeeping)."""

    def _route_ids(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The id kernel: route ``ids`` (issued by ``self._id_dict``).

        Returns ``(workers, heads)``: one ``int64`` worker per message, and
        the ``bool`` head flags — ``None`` when no message was classified
        head.  Must update the load vector and ``messages_routed`` and pick
        the workers and flags the scalar oracle would, message by message.
        The default decodes and runs the oracle itself — always correct;
        schemes override it to route straight off the id array (hashing
        through the per-id candidate tables of
        :class:`~repro.hashing.hash_family.HashFamily`, which hash the
        dictionary's *folded keys*, so results stay bit-identical).
        """
        flags: list[bool] = []
        workers = self._route_scalar(self._id_dict.decode(ids), flags)
        heads = np.array(flags, dtype=bool)
        return np.fromiter(workers, np.int64, len(workers)), heads if heads.any() else None

    # ------------------------------------------------------------------ #
    # the id namespace
    # ------------------------------------------------------------------ #
    def _dictionary(self) -> KeyDictionary:
        """The bound dictionary, creating the private one on first use.

        A private dictionary is unbounded, like every stream dictionary: it
        holds one entry per distinct key routed since the last
        :meth:`reset`.
        """
        if self._id_dict is None:
            self._bind_dictionary(KeyDictionary())
        return self._id_dict

    def _bind_dictionary(self, dictionary: KeyDictionary) -> None:
        self._id_dict = dictionary

    # ------------------------------------------------------------------ #
    # helpers shared by load-aware schemes
    # ------------------------------------------------------------------ #
    def _least_loaded(self, candidates: tuple[WorkerId, ...]) -> WorkerId:
        """The candidate with the minimum local load (MINLOAD in Algorithm 1).

        Ties are broken by candidate order, which is arbitrary but
        deterministic — the paper allows arbitrary tie-breaking.
        """
        if not candidates:
            raise ConfigurationError("candidate set must not be empty")
        loads = self._state.loads
        best = candidates[0]
        best_load = loads[best]
        for candidate in candidates[1:]:
            load = loads[candidate]
            if load < best_load:
                best = candidate
                best_load = load
        return best

    @staticmethod
    def _listed(
        routed: tuple[np.ndarray, np.ndarray | None], head_flags: list[bool] | None
    ) -> list[WorkerId]:
        """The list contract of the public batched entry points over the id
        kernel's columns: workers as Python ints, flags appended to the
        caller's list."""
        workers, heads = routed
        if head_flags is not None:
            head_flags.extend(
                [False] * len(workers) if heads is None else heads.tolist()
            )
        return workers.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(num_workers={self._num_workers}, "
            f"seed={self._seed})"
        )
