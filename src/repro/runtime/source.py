"""The source process: intern, route, scatter into the per-worker rings.

The source is the only router in the cluster — the same single-sender
setting as ``run_simulation(num_sources=1)``, which is what makes the
real-vs-simulated validation exact: both route the identical columnar
stream through the identical partitioner seed, so the per-worker message
counts must agree bit for bit.  Faults never touch routing: the partitioner
always routes over the full worker set, and recovery acts *after* routing,
at the scatter step — which is what keeps the source's load vector
bit-identical to the simulator even through crashes.

Hot path per batch:

1. pull one :class:`~repro.workloads.columnar.ColumnarBatch` from the
   workload's native columnar iterator (interning happens here, once per
   distinct key);
2. ``route_batch_columnar`` — the partitioner's vectorised fast path, byte
   identical to scalar routing;
3. scatter the id array by destination worker (one boolean mask per
   worker) and push each sub-array as one ring frame — no pickling;
4. when the dictionary grew, send the new ``(id, key)`` entries down each
   worker's delta pipe *before* the frame that needs them;
5. every ``publish_every`` batches, publish the load vector and the
   SpaceSaving head summary into the shared state block for the
   coordinator's snapshots.

Recovery protocol (supervisor -> source, one control pipe):

* A failed worker is *fenced* in shared state the moment the supervisor
  detects it — a push blocked on its ring unwinds instead of waiting out
  the timeout, and the source adds the slot to its ``down`` set.
* While a slot is down, its share is **redirected to the survivors** with
  the candidate-set-remap rule (``key_id mod survivor_count``, the same
  instant hash-derived remap the elasticity ``remap`` policy models): the
  stream keeps flowing instead of stalling on a dead ring.
* ``("recover", w, incarnation)`` — the supervisor respawned the worker
  over a re-initialised ring.  The source rebinds its producer view,
  resets the slot's delta cursor so the **whole dictionary replays** to
  the fresh replica before its first frame, and re-adopts its routing
  state through the partitioner's ``export_state``/``adopt_state``
  contract — the same hot-handoff that powers adaptive scheme switching,
  property-pinned byte-identical, so recovery cannot perturb routing.
* ``("degrade", w)`` — the restart budget is exhausted; the redirect
  becomes permanent and the slot's replica is priced as lost state.
* ``("salvaged", w)`` — the worker died after the stream closed; the
  supervisor salvaged the ring itself and no handoff is needed.

Every recovery action is priced through the elasticity
:class:`~repro.elasticity.accountant.MigrationCostAccountant` in the same
keys-moved / entries-migrated / entries-lost currency as rescale events.
"""

from __future__ import annotations

import time

import numpy as np

from repro.elasticity.accountant import MigrationCostAccountant
from repro.elasticity.policies import CANDIDATE_SET_REMAP
from repro.exceptions import ClusterRuntimeError
from repro.execution import SenderGroup, spans
from repro.runtime.ring import Doorbell, read_poller
from repro.runtime.state import SharedClusterState, StartGate


def _head_ids(partitioner) -> dict[int, int] | None:
    """The sketch's current head as ``{key id: estimated count}``.

    Only head/tail schemes carry a sketch; in columnar mode it tracks key
    ids natively, which is exactly the namespace the shared summary stores.
    """
    sketch = getattr(partitioner, "sketch", None)
    theta = getattr(partitioner, "theta", None)
    if sketch is None or theta is None:
        return None
    return {int(kid): int(count) for kid, count in sketch.heavy_hitters(theta).items()}


class DeltaFeed:
    """The source's half of the dictionary delta protocol.

    ``sent[w]`` is worker ``w``'s cursor: how many dictionary entries its
    current incarnation has been sent.  A delta carries the entries
    ``[sent[w], high_water)`` as one key list, gathered from the dictionary
    in a single ``decode`` and built **once per distinct span** — workers
    whose cursors sit at the same ``start`` (every worker the batch
    reaches, on a fault-free run) are sent the same list object.
    """

    __slots__ = ("sent", "_conn_pools", "_incarnation", "_span", "_keys")

    def __init__(self, conn_pools) -> None:
        self._conn_pools = conn_pools
        self.sent = [0] * len(conn_pools)
        self._incarnation = [0] * len(conn_pools)
        self._span: tuple[int, int] | None = None
        self._keys: list = []

    def send_if_needed(self, worker_id: int, dictionary, high_water: int) -> None:
        """Bring ``worker_id`` up to ``high_water`` entries, if it is behind."""
        start = self.sent[worker_id]
        if start >= high_water:
            return
        if self._span != (start, high_water):
            # The dictionary is append-only, so a span names its keys.
            self._keys = dictionary.decode(np.arange(start, high_water))
            self._span = (start, high_water)
        self._conn_pools[worker_id][self._incarnation[worker_id]].send(
            ("delta", start, self._keys)
        )
        self.sent[worker_id] = high_water

    def replay_to(self, worker_id: int, incarnation: int) -> None:
        """Point the slot at a fresh incarnation's pipe and rewind its cursor.

        The next :meth:`send_if_needed` replays the whole dictionary, so
        the replacement's first frame (or its EOF close) is preceded by
        entries ``[0, high water)``.
        """
        self._incarnation[worker_id] = incarnation
        self.sent[worker_id] = 0


def source_main(
    config,
    rings,
    state: SharedClusterState,
    delta_conn_pools,
    result_conn,
    control_conn=None,
    start: StartGate | None = None,
    fence_bell: Doorbell | None = None,
    finish: StartGate | None = None,
) -> None:
    """Entry point of the source process (run under the fork context).

    ``delta_conn_pools[w]`` is the list of delta-pipe send ends for worker
    ``w``, one per incarnation (index 0 is the original worker, index k the
    k-th respawn); ``control_conn`` is the receive end of the supervisor's
    recovery channel (``None`` runs unsupervised, as the unit tests do).
    The source reports ``("ready",)`` once its router, its workload and
    its recovery bookkeeping are built, then waits at ``start`` (``None``
    starts at once).  It rings ``fence_bell`` after each fence it
    acknowledges, and once more when it is off the rings for good, just
    before it reports its result; then it waits at ``finish`` (an error
    report exits at once).
    """
    n = config.num_workers
    worker_range = range(n)

    def new_group() -> SenderGroup:
        # The runtime's one router: a sender group of one, built exactly as
        # ``run_simulation(num_sources=1)`` builds its own.
        return SenderGroup.build(
            config.scheme, 1, n, seed=config.seed, **dict(config.scheme_options)
        )

    reported = False
    try:
        group = new_group()
        (partitioner,) = group.partitioners
        batches = spans(config.build_workload(), group, config.mode)

        dictionary = None
        deltas = DeltaFeed(delta_conn_pools)
        batch_count = 0

        # Recovery bookkeeping: which slots are out of service, how much of
        # whose share went where, and what each recovery cost.
        down: set[int] = set()
        degraded: set[int] = set()
        salvaged: set[int] = set()
        closed: set[int] = set()
        redirected_out = [0] * n  # messages *intended* for w, sent elsewhere
        redirected_in = [0] * n  # messages w absorbed for a down peer
        redirected_keys: list[set[int]] = [set() for _ in worker_range]
        accountant = MigrationCostAccountant(CANDIDATE_SET_REMAP)

        def take_fence(worker_id: int) -> None:
            state.acknowledge_fence(worker_id)
            if fence_bell is not None:
                fence_bell.ring()

        def fence_aware(worker_id: int):
            return lambda: state.aborted() or state.worker_fenced(worker_id)

        # One abort predicate per worker slot, built once: every push and
        # close of a slot polls the same closure.
        should_abort = [fence_aware(worker_id) for worker_id in worker_range]

        def guarded_push(worker_id: int, ids, base_index: int) -> bool:
            """Push one frame; ``False`` when the worker was fenced away.

            Acknowledging the fence promises the supervisor the source will
            not touch this ring again until the fence clears — only then is
            the supervisor free to drain and re-initialise it.
            """
            try:
                rings[worker_id].push(
                    ids,
                    base_index=base_index,
                    dict_high_water=deltas.sent[worker_id],
                    should_abort=should_abort[worker_id],
                    timeout=config.push_timeout_s,
                )
                return True
            except ClusterRuntimeError:
                if state.aborted() or not state.worker_fenced(worker_id):
                    raise
                take_fence(worker_id)
                return False

        def redirect(intended: int, ids, base_index: int) -> None:
            """Deliver a down slot's share to the survivors (key-mod remap)."""
            redirected_keys[intended].update(int(kid) for kid in np.unique(ids))
            remaining = ids
            while True:
                survivors = [w for w in worker_range if w not in down]
                if not survivors:
                    raise ClusterRuntimeError(
                        f"no surviving workers to absorb worker {intended}'s "
                        "share: every worker is out of service"
                    )
                assignment = remaining % len(survivors)
                failed_parts = []
                for index, survivor in enumerate(survivors):
                    part = remaining[assignment == index]
                    if not part.size:
                        continue
                    deltas.send_if_needed(survivor, dictionary, len(dictionary))
                    if guarded_push(survivor, part, base_index):
                        redirected_out[intended] += int(part.size)
                        redirected_in[survivor] += int(part.size)
                    else:
                        down.add(survivor)
                        failed_parts.append(part)
                if not failed_parts:
                    return
                remaining = np.concatenate(failed_parts)

        control_ready = (
            read_poller(control_conn.fileno()) if control_conn is not None else None
        )

        def poll_control(block_s: float = 0.0) -> None:
            nonlocal group, partitioner
            if control_ready is None:
                return
            while control_ready.poll(block_s * 1e3):
                block_s = 0.0
                message = control_conn.recv()
                op, worker_id = message[0], message[1]
                if op == "recover":
                    incarnation = message[2]
                    rings[worker_id].rebind()
                    closed.discard(worker_id)
                    deltas.replay_to(worker_id, incarnation)
                    replay_entries = len(dictionary) if dictionary is not None else 0
                    head = _head_ids(partitioner) or {}
                    # Re-adopt routing state across the fault epoch through
                    # the hot-handoff contract: byte-identical to an
                    # uninterrupted run (tests/property/test_state_roundtrip).
                    snapshot = partitioner.export_state()
                    group = new_group()
                    (partitioner,) = group.partitioners
                    partitioner.adopt_state(snapshot)
                    accountant.record_recovery(
                        offset=partitioner.messages_routed,
                        description=f"recover:w{worker_id}",
                        num_workers=n,
                        keys_moved=len(redirected_keys[worker_id]),
                        entries_migrated=replay_entries,
                        entries_lost=0,
                        head_keys_preserved=len(head),
                    )
                    redirected_keys[worker_id].clear()
                    down.discard(worker_id)
                elif op == "degrade":
                    down.add(worker_id)
                    degraded.add(worker_id)
                    accountant.record_recovery(
                        offset=partitioner.messages_routed,
                        description=f"degrade:w{worker_id}",
                        num_workers=n,
                        keys_moved=len(redirected_keys[worker_id]),
                        entries_migrated=0,
                        entries_lost=deltas.sent[worker_id],
                        head_keys_preserved=0,
                    )
                elif op == "salvaged":
                    down.add(worker_id)
                    salvaged.add(worker_id)

        def observe_fences() -> None:
            # Pushes into a dead worker's not-yet-full ring succeed, so the
            # fence must be polled proactively: the moment it is up, the
            # slot leaves service and the supervisor may drain its ring
            # knowing the drained count is final.
            for worker_id in worker_range:
                if worker_id not in down and state.worker_fenced(worker_id):
                    take_fence(worker_id)
                    down.add(worker_id)

        if finish is not None:
            finish.release()  # this process's copy of the write end
        result_conn.send(("ready",))
        if start is not None:
            start.wait()
        if state.aborted():
            return

        for batch, index in batches:
            poll_control()
            observe_fences()
            dictionary = batch.dictionary
            workers, _ = group.route_span(batch, index)
            high_water = len(dictionary)
            for worker_id in worker_range:
                ids = batch.ids[workers == worker_id]
                if not ids.size:
                    continue
                if worker_id in down:
                    redirect(worker_id, ids, batch.base_index)
                    continue
                deltas.send_if_needed(worker_id, dictionary, high_water)
                if not guarded_push(worker_id, ids, batch.base_index):
                    down.add(worker_id)
                    redirect(worker_id, ids, batch.base_index)
            batch_count += 1
            if batch_count % config.publish_every == 0:
                state.publish_routing(
                    partitioner.local_loads,
                    partitioner.messages_routed,
                    high_water,
                    head=_head_ids(partitioner),
                )

        state.mark_source_done()
        # Close the live rings; then linger briefly for any recovery still
        # in flight — a replacement spawned moments before EOF must get its
        # ring closed (and its dictionary replayed) or it would wait
        # forever.  The supervisor answers every open failure with exactly
        # one of recover/degrade/salvaged, so the linger exits promptly;
        # the deadline is a backstop against a dead supervisor.
        high_water = len(dictionary) if dictionary is not None else 0
        deadline = time.monotonic() + config.recovery_linger_s
        while True:
            for worker_id in worker_range:
                if worker_id in down or worker_id in closed:
                    continue
                deltas.send_if_needed(worker_id, dictionary, high_water)
                try:
                    rings[worker_id].close(
                        should_abort=should_abort[worker_id],
                        timeout=config.push_timeout_s,
                    )
                    closed.add(worker_id)
                except ClusterRuntimeError:
                    if state.aborted() or not state.worker_fenced(worker_id):
                        raise
                    take_fence(worker_id)
                    down.add(worker_id)
            # A fence raised while the rings were closing is taken here, so
            # the slot is waited for; once this pass lets the source go, a
            # later fence finds it gone and the supervisor salvages.
            observe_fences()
            if not (down - degraded - salvaged):
                break
            if time.monotonic() > deadline:
                break
            poll_control(0.05)

        head = _head_ids(partitioner)
        state.publish_routing(
            partitioner.local_loads,
            partitioner.messages_routed,
            high_water,
            head=head,
        )
        decoded_head = (
            {dictionary.key_of(kid): count for kid, count in head.items()}
            if head and dictionary is not None
            else {}
        )
        # Parked, the source stays alive: a supervisor waiting for a fence
        # it will never take reads this instead of its exit.
        state.mark_source_finished()
        if fence_bell is not None:
            fence_bell.ring()
        result_conn.send(
            (
                "result",
                {
                    "loads": partitioner.local_loads,
                    "messages_routed": partitioner.messages_routed,
                    "head": decoded_head,
                    "dict_entries": high_water,
                    "redirected_out": redirected_out,
                    "redirected_in": redirected_in,
                    "migration": accountant.report(),
                },
            )
        )
        reported = True
    except Exception as error:
        try:
            result_conn.send(("error", -1, repr(error)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        try:
            result_conn.close()
        except OSError:
            pass
    if reported and finish is not None:
        finish.wait()
