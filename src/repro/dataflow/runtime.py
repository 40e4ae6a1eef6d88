"""Execution of a topology over a workload.

The runtime instantiates every vertex's operator instances and builds one
partitioner *per (edge, upstream instance)* — so each sender routes with its
own local load vector, as in the paper.  :class:`~repro.execution.ExecutionMode`
selects between the scalar reference and micro-batched execution; the
micro-batch representation follows from the workload:

* **scalar**: every input message is pushed through the
  DAG depth-first, routed and processed one at a time — the reference
  semantics;
* **micro-batched messages** (``columnar:N``, the default, over any plain
  iterable of keys or pre-built messages): the stream is consumed in
  micro-batches and the DAG executes *stage by stage* — every edge routes
  its whole sub-batch through the per-sender partitioner's ``route_batch``
  (vectorized hashing) and every operator instance processes its share via
  ``execute_batch`` (bulk folds).  Deliveries carry their depth-first order,
  so each partitioner and each operator instance observes exactly the
  sub-stream it would under scalar execution: results are byte-identical
  for every batch size (property-pinned), only the throughput changes;
* **micro-batched key ids** (``columnar:N`` over a workload exposing
  ``iter_batches_columnar``): the same stage-by-stage execution whose
  micro-batches are interned key-id arrays (:class:`~repro.workloads.columnar.ColumnarBatch`)
  — source edges route ids through ``route_batch_columnar`` and terminal
  stateful vertices fold their shares in id space via ``execute_batch_ids``,
  so string keys are hashed exactly once, at interning.  Still
  byte-identical.

The runtime collects per-vertex metrics (imbalance, per-instance loads,
state sizes) that mirror what the simulation engine reports for a single
edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from itertools import islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from repro.dataflow.graph import Edge, Topology, Vertex
from repro.exceptions import ConfigurationError
from repro.execution import ExecutionMode, ModeLike
from repro.operators.base import Operator
from repro.partitioning.base import Partitioner
from repro.partitioning.registry import create_partitioner
from repro.types import Key, Message

_MESSAGE_KEY = attrgetter("key")


@dataclass(slots=True)
class VertexMetrics:
    """Per-vertex load statistics after a run."""

    name: str
    parallelism: int
    messages: int
    instance_loads: list[int] = field(default_factory=list)
    state_sizes: list[int] = field(default_factory=list)

    @property
    def imbalance(self) -> float:
        """``I(m)`` over this vertex's instances (0 when it saw no traffic)."""
        if self.messages == 0:
            return 0.0
        normalized = [load / self.messages for load in self.instance_loads]
        return max(0.0, max(normalized) - sum(normalized) / self.parallelism)

    @property
    def total_state_entries(self) -> int:
        return sum(self.state_sizes)


@dataclass(slots=True)
class TopologyResult:
    """Everything :func:`run_topology` reports."""

    topology_name: str
    messages_ingested: int
    metrics: dict[str, VertexMetrics] = field(default_factory=dict)
    #: The live operator instances, per vertex, so callers can reconcile
    #: stateful results after the run.
    instances: dict[str, list[Operator]] = field(default_factory=dict)
    #: Scheme switches applied by adaptive (``AD``) edge partitioners during
    #: the run — one dict per switch, annotated with the edge and the sender
    #: instance, ordered by stream position.  Empty for static schemes.
    switch_log: list[dict] = field(default_factory=list)

    def vertex_metrics(self, name: str) -> VertexMetrics:
        if name not in self.metrics:
            raise ConfigurationError(f"no metrics for vertex {name!r}")
        return self.metrics[name]


class _EdgeRouter:
    """Per-edge routing state: one partitioner per upstream instance."""

    def __init__(self, edge: Edge, upstream_parallelism: int,
                 downstream_parallelism: int, seed: int) -> None:
        self.edge = edge
        self._partitioners: list[Partitioner] = []
        for sender in range(upstream_parallelism):
            sender_seed = seed + sender if edge.scheme == "SG" else seed
            self._partitioners.append(
                create_partitioner(
                    edge.scheme,
                    num_workers=downstream_parallelism,
                    seed=sender_seed,
                    **edge.scheme_options,
                )
            )

    def route(self, sender: int, key: Key) -> int:
        return self._partitioners[sender].route(key)

    def route_batch(self, sender: int, keys: list[Key]) -> list[int]:
        return self._partitioners[sender].route_batch(keys)

    def route_batch_columnar(self, sender: int, batch) -> list[int]:
        return self._partitioners[sender].route_batch_columnar(batch)

    def switch_events(self) -> list[dict]:
        """Scheme switches of this edge's partitioners (adaptive only)."""
        rows: list[dict] = []
        for sender, partitioner in enumerate(self._partitioners):
            events = getattr(partitioner, "switch_events", None)
            if not callable(events):
                continue
            for record in events():
                row = record.to_dict()
                row["edge"] = f"{self.edge.source}->{self.edge.target}"
                row["sender"] = sender
                rows.append(row)
        return rows


class TopologyRuntime:
    """Instantiates and runs a validated topology."""

    def __init__(self, topology: Topology, seed: int = 0,
                 num_external_sources: int = 1,
                 mode: ModeLike | None = None) -> None:
        topology.validate()
        if num_external_sources < 1:
            raise ConfigurationError(
                f"num_external_sources must be >= 1, got {num_external_sources}"
            )
        self._topology = topology
        self._seed = seed
        self._num_external_sources = num_external_sources
        self._mode = ExecutionMode.coerce(mode)
        self._batch_size = self._mode.batch_size
        self._instances: dict[str, list[Operator]] = {
            vertex.name: [vertex.factory(i) for i in range(vertex.parallelism)]
            for vertex in topology.vertices.values()
        }
        self._edges = topology.edges
        self._routers: dict[int, _EdgeRouter] = {}
        for index, edge in enumerate(self._edges):
            upstream = (
                num_external_sources
                if edge.source == Topology.SOURCE
                else topology.vertex(edge.source).parallelism
            )
            downstream = topology.vertex(edge.target).parallelism
            self._routers[index] = _EdgeRouter(
                edge, upstream, downstream, seed + index * 1000
            )
        # Stage plan for batched execution: vertices in topological order,
        # with each vertex's incoming and outgoing edge indices.
        self._stage_order = topology.topological_order()
        self._incoming: dict[str, list[int]] = {name: [] for name in self._stage_order}
        self._outgoing: dict[str, list[int]] = {name: [] for name in self._stage_order}
        self._source_edge_indices: list[int] = []
        for index, edge in enumerate(self._edges):
            self._incoming[edge.target].append(index)
            if edge.source == Topology.SOURCE:
                self._source_edge_indices.append(index)
            else:
                self._outgoing[edge.source].append(index)
        # Merge-free topologies (every vertex fed by exactly one edge — the
        # overwhelmingly common shape) take a leaner batched path that skips
        # the depth-first order keys entirely: each edge's delivery list is
        # in arrival order by construction.
        self._merge_free = all(
            len(edges) == 1 for edges in self._incoming.values()
        )
        self._ingested = 0

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, workload: Iterable[Key | Message]) -> TopologyResult:
        """Push every message of ``workload`` through the topology."""
        if self._mode.is_scalar:
            self._run_scalar(workload)
        elif hasattr(workload, "iter_batches_columnar"):
            # A key-stream workload: micro-batches of interned key ids.
            self._run_columnar(workload)
        else:
            # Any other iterable (plain keys or pre-built messages).
            self._run_batched(workload)
        if self._ingested == 0:
            raise ConfigurationError("cannot run a topology on an empty workload")
        return self._build_result()

    # ------------------------------------------------------------------ #
    # scalar execution (depth-first, one message at a time)
    # ------------------------------------------------------------------ #
    def _run_scalar(self, workload: Iterable[Key | Message]) -> None:
        for raw in workload:
            message = raw if isinstance(raw, Message) else Message(
                timestamp=float(self._ingested), key=raw
            )
            external_source = self._ingested % self._num_external_sources
            self._ingested += 1
            for index in self._source_edge_indices:
                self._deliver(index, self._edges[index], external_source, message)

    def _deliver(self, edge_index: int, edge: Edge, sender: int,
                 message: Message) -> None:
        """Route ``message`` over ``edge`` and process it downstream."""
        router = self._routers[edge_index]
        instance_index = router.route(sender, message.key)
        instance = self._instances[edge.target][instance_index]
        outputs = instance.execute(message)
        if not outputs:
            return
        for downstream_index in self._outgoing[edge.target]:
            downstream_edge = self._edges[downstream_index]
            for output in outputs:
                self._deliver(downstream_index, downstream_edge,
                              instance_index, output)

    # ------------------------------------------------------------------ #
    # batched execution (stage by stage over micro-batches)
    # ------------------------------------------------------------------ #
    def _run_batched(self, workload: Iterable[Key | Message]) -> None:
        execute = (
            self._execute_micro_batch_merge_free
            if self._merge_free
            else self._execute_micro_batch
        )
        iterator: Iterator[Key | Message] = iter(workload)
        while True:
            chunk = list(islice(iterator, self._batch_size))
            if not chunk:
                return
            execute(chunk)

    def _ingest_chunk(self, chunk: list[Key | Message]) -> list[Message]:
        """Convert one input chunk into a message list (senders implicit)."""
        base = self._ingested
        self._ingested += len(chunk)
        return [
            raw if isinstance(raw, Message) else Message(
                timestamp=float(base + offset), key=raw
            )
            for offset, raw in enumerate(chunk)
        ]

    def _run_columnar(self, workload: Iterable[Key]) -> None:
        """Columnar batched execution: interned key-id arrays at the source.

        The workload is consumed through its ``iter_batches_columnar``, so
        string keys are hashed exactly once, at interning.  Source edges
        route id arrays through ``route_batch_columnar`` and terminal
        stateful vertices fold their shares in id space via
        ``execute_batch_ids``; any other downstream consumption decodes the
        batch once and continues on the ordinary message machinery.
        Results are byte-identical to the scalar and batched paths.

        Columnar mode treats the workload as a *key* stream (pre-built
        :class:`Message` inputs belong to the message paths).  Topologies
        with merge vertices fall back to the order-keyed general path,
        decoding each batch up front.
        """
        for batch in workload.iter_batches_columnar(self._batch_size):
            if not len(batch):
                continue
            if self._merge_free:
                self._execute_micro_batch_columnar(batch)
            else:
                self._execute_micro_batch(batch.keys())

    def _execute_micro_batch_columnar(self, batch) -> None:
        """One columnar micro-batch through the merge-free stage loop."""
        base = self._ingested
        self._ingested += len(batch)
        pending: list[tuple[object, object] | None] = [None] * len(self._edges)
        for edge_index in self._source_edge_indices:
            pending[edge_index] = ("columnar", batch)
        self._drain_stages(pending, base)

    def _execute_micro_batch_merge_free(self, chunk: list[Key | Message]) -> None:
        """Stage-wise micro-batch execution for merge-free topologies.

        With a single incoming edge per vertex there is nothing to
        interleave, so deliveries travel in arrival order by construction —
        no per-delivery order keys, no merge.  Routing still goes per
        sender through ``route_batch`` and processing per instance through
        ``execute_batch``, exactly as the general path, so every
        partitioner and operator sees its scalar sub-stream.

        Sub-batch senders are tracked by payload shape rather than one int
        per delivery: the external round-robin assignment is recovered with
        strided slices (C-speed slicing instead of a Python grouping loop)
        and internal edges reuse the upstream worker vector.
        """
        base = self._ingested
        messages = self._ingest_chunk(chunk)
        # payload per edge: (senders, messages) where senders is None for
        # the round-robin external stream, an int when every delivery has
        # the same sender, or a per-delivery worker-id list.
        pending: list[tuple[object, object] | None] = (
            [None] * len(self._edges)
        )
        for edge_index in self._source_edge_indices:
            pending[edge_index] = (None, messages)
        self._drain_stages(pending, base)

    def _drain_stages(
        self, pending: list[tuple[object, object] | None], base: int
    ) -> None:
        """Run the merge-free stage loop over the queued edge payloads.

        A payload is ``(senders, data)``: ``senders`` is ``None`` for the
        round-robin external message stream, ``"columnar"`` for the external
        stream as a :class:`ColumnarBatch`, an int when every delivery has
        the same sender, or a per-delivery sender list.
        """
        num_sources = self._num_external_sources
        for vertex_name in self._stage_order:
            edge_index = self._incoming[vertex_name][0]
            payload = pending[edge_index]
            if payload is None:
                continue
            pending[edge_index] = None
            senders, messages = payload
            count = len(messages)
            if not count:
                continue
            router = self._routers[edge_index]
            instances = self._instances[vertex_name]
            outgoing = self._outgoing[vertex_name]
            # --- route: one route_batch call per distinct sender --------- #
            if senders == "columnar":
                # The external stream as an id array: per-sender shares are
                # strided views, routed without any decode.
                batch = messages
                if num_sources == 1:
                    workers = router.route_batch_columnar(0, batch)
                else:
                    workers = [0] * count
                    for sender in range(num_sources):
                        offset = (sender - base) % num_sources
                        sub = batch.strided(offset, num_sources)
                        if len(sub):
                            workers[offset::num_sources] = (
                                router.route_batch_columnar(sender, sub)
                            )
                if not outgoing and all(
                    hasattr(instance, "execute_batch_ids")
                    for instance in instances
                ):
                    # Terminal stateful vertex: fold shares in id space —
                    # no Message objects, one decode per distinct key.
                    self._fold_terminal_ids(instances, workers, batch)
                    continue
                # Anything else consumes messages: decode the batch once.
                messages = [
                    Message(timestamp=float(base + offset), key=key)
                    for offset, key in enumerate(batch.keys())
                ]
            elif senders is None:
                # External round-robin: sender of messages[i] is
                # (base + i) % num_sources, so each sender's sub-stream is a
                # strided slice and the routed workers scatter back with a
                # C-speed slice assignment.
                if num_sources == 1:
                    workers = router.route_batch(
                        0, list(map(_MESSAGE_KEY, messages))
                    )
                else:
                    workers: list[int] = [0] * count
                    for sender in range(num_sources):
                        offset = (sender - base) % num_sources
                        share = messages[offset::num_sources]
                        if share:
                            workers[offset::num_sources] = router.route_batch(
                                sender, list(map(_MESSAGE_KEY, share))
                            )
            elif type(senders) is int:
                workers = router.route_batch(
                    senders, list(map(_MESSAGE_KEY, messages))
                )
            else:
                by_sender: dict[int, list[int]] = {}
                for position, sender in enumerate(senders):
                    group = by_sender.get(sender)
                    if group is None:
                        by_sender[sender] = [position]
                    else:
                        group.append(position)
                workers = [0] * count
                for sender, positions in by_sender.items():
                    routed = router.route_batch(
                        sender, [messages[position].key for position in positions]
                    )
                    for position, worker in zip(positions, routed):
                        workers[position] = worker
            # --- process: one execute_batch call per active instance ---- #
            parallelism = len(instances)
            if parallelism == 1:
                emitted_by_position = instances[0].execute_batch(messages)
            else:
                share_groups: list[list[Message] | None] = [None] * parallelism
                for worker, message in zip(workers, messages):
                    share = share_groups[worker]
                    if share is None:
                        share_groups[worker] = [message]
                    else:
                        share.append(message)
                if not outgoing:
                    # Terminal vertex: nothing consumes the outputs.
                    for worker, share in enumerate(share_groups):
                        if share is not None:
                            instances[worker].execute_batch(share)
                    continue
                # Each group's outputs come back in that group's input
                # order, so replaying the worker vector against per-group
                # iterators restores arrival order without position lists.
                emitted_iters = [
                    iter(instances[worker].execute_batch(share))
                    if share is not None
                    else None
                    for worker, share in enumerate(share_groups)
                ]
                emitted_by_position: list[Sequence[Message]] = [
                    next(emitted_iters[worker]) for worker in workers
                ]
            if not outgoing:
                continue
            # --- emit: flatten in arrival order, senders = producers ----- #
            downstream_senders: list[int] = []
            downstream_messages: list[Message] = []
            sender_append = downstream_senders.append
            message_append = downstream_messages.append
            for worker, emitted in zip(workers, emitted_by_position):
                if emitted:
                    for output in emitted:
                        sender_append(worker)
                        message_append(output)
            if not downstream_messages:
                continue
            first = downstream_senders[0]
            if downstream_senders[-1] == first and all(
                sender == first for sender in downstream_senders
            ):
                next_payload = (first, downstream_messages)
            else:
                next_payload = (downstream_senders, downstream_messages)
            # All outgoing edges see the same (read-only) delivery lists.
            for downstream_index in outgoing:
                pending[downstream_index] = next_payload

    @staticmethod
    def _fold_terminal_ids(instances, workers: list[int], batch) -> None:
        """Fold a terminal columnar share per instance, in id space."""
        ids = batch.ids.tolist()
        dictionary = batch.dictionary
        if len(instances) == 1:
            instances[0].execute_batch_ids(ids, dictionary)
            return
        share_groups: list[list[int] | None] = [None] * len(instances)
        for worker, kid in zip(workers, ids):
            share = share_groups[worker]
            if share is None:
                share_groups[worker] = [kid]
            else:
                share.append(kid)
        for worker, share in enumerate(share_groups):
            if share is not None:
                instances[worker].execute_batch_ids(share, dictionary)

    def _execute_micro_batch(self, chunk: list[Key | Message]) -> None:
        """Run one micro-batch through the DAG, stage by stage.

        Every delivery carries its *depth-first order key* — the tuple of
        ``(edge index, output index)`` pairs along its derivation path,
        prefixed by the input message's position.  Sorting deliveries by
        that key reconstructs exactly the order the scalar engine would
        process them in, which is what keeps each per-sender partitioner
        and each operator instance on the same sub-stream as scalar
        execution (and therefore every result bit-identical).
        """
        num_sources = self._num_external_sources
        # Unrouted deliveries per edge, each list kept sorted by order key:
        # (order_key, sender, message).
        pending: dict[int, list[tuple[tuple[int, ...], int, Message]]] = {
            index: [] for index in range(len(self._edges))
        }
        base = self._ingested
        batch: list[tuple[int, Message]] = []
        for offset, raw in enumerate(chunk):
            message = raw if isinstance(raw, Message) else Message(
                timestamp=float(base + offset), key=raw
            )
            batch.append(((base + offset) % num_sources, message))
        self._ingested += len(chunk)
        for edge_index in self._source_edge_indices:
            pending[edge_index] = [
                ((position, edge_index, 0), sender, message)
                for position, (sender, message) in enumerate(batch)
            ]

        for vertex_name in self._stage_order:
            arrivals = self._route_incoming(vertex_name, pending)
            if not arrivals:
                continue
            outputs = self._process_stage(vertex_name, arrivals)
            self._emit_downstream(vertex_name, arrivals, outputs, pending)

    def _route_incoming(
        self,
        vertex_name: str,
        pending: dict[int, list[tuple[tuple[int, ...], int, Message]]],
    ) -> list[tuple[tuple[int, ...], int, Message]]:
        """Route every delivery bound for ``vertex_name``.

        Returns ``(order_key, instance_index, message)`` triples sorted by
        order key.  Each incoming edge routes per sender through
        ``route_batch`` — the sender's deliveries are already in order, so
        its partitioner sees the same key sequence as under scalar routing.
        """
        routed_lists: list[list[tuple[tuple[int, ...], int, Message]]] = []
        for edge_index in self._incoming[vertex_name]:
            deliveries = pending[edge_index]
            if not deliveries:
                continue
            pending[edge_index] = []
            router = self._routers[edge_index]
            routed: list[tuple[tuple[int, ...], int, Message]] = [None] * len(deliveries)  # type: ignore[list-item]
            by_sender: dict[int, tuple[list[int], list[Key]]] = {}
            for position, (_, sender, message) in enumerate(deliveries):
                slot = by_sender.get(sender)
                if slot is None:
                    slot = by_sender[sender] = ([], [])
                slot[0].append(position)
                slot[1].append(message.key)
            for sender, (positions, keys) in by_sender.items():
                workers = router.route_batch(sender, keys)
                for position, worker in zip(positions, workers):
                    order_key, _, message = deliveries[position]
                    routed[position] = (order_key, worker, message)
            routed_lists.append(routed)
        if not routed_lists:
            return []
        if len(routed_lists) == 1:
            return routed_lists[0]
        # Multiple incoming edges: interleave back into depth-first order.
        return list(_heap_merge(*routed_lists, key=itemgetter(0)))

    def _process_stage(
        self,
        vertex_name: str,
        arrivals: list[tuple[tuple[int, ...], int, Message]],
    ) -> list[Sequence[Message]]:
        """Feed each instance its (in-order) share; outputs align to arrivals."""
        per_instance: dict[int, tuple[list[int], list[Message]]] = {}
        for position, (_, instance_index, message) in enumerate(arrivals):
            slot = per_instance.get(instance_index)
            if slot is None:
                slot = per_instance[instance_index] = ([], [])
            slot[0].append(position)
            slot[1].append(message)
        instances = self._instances[vertex_name]
        outputs: list[Sequence[Message]] = [()] * len(arrivals)
        for instance_index, (positions, messages) in per_instance.items():
            emitted = instances[instance_index].execute_batch(messages)
            for position, out in zip(positions, emitted):
                outputs[position] = out
        return outputs

    def _emit_downstream(
        self,
        vertex_name: str,
        arrivals: list[tuple[tuple[int, ...], int, Message]],
        outputs: list[Sequence[Message]],
        pending: dict[int, list[tuple[tuple[int, ...], int, Message]]],
    ) -> None:
        """Queue stage outputs on the outgoing edges, extending order keys.

        Arrivals are order-key-sorted and extensions append ``(edge, j)``
        suffixes, so each edge's pending list stays sorted by construction.
        """
        for edge_index in self._outgoing[vertex_name]:
            queue = pending[edge_index]
            append = queue.append
            for (order_key, instance_index, _), emitted in zip(arrivals, outputs):
                for output_index, output in enumerate(emitted):
                    append((
                        order_key + (edge_index, output_index),
                        instance_index,
                        output,
                    ))

    def _build_result(self) -> TopologyResult:
        switch_log: list[dict] = []
        for router in self._routers.values():
            switch_log.extend(router.switch_events())
        # Position first, then edge/sender: a deterministic stream order
        # that is identical across the scalar, batched and columnar paths
        # (per-sender positions are unique within an edge).
        switch_log.sort(key=lambda row: (row["position"], row["edge"], row["sender"]))
        result = TopologyResult(
            topology_name=self._topology.name,
            messages_ingested=self._ingested,
            instances=self._instances,
            switch_log=switch_log,
        )
        for name, instances in self._instances.items():
            loads = [instance.processed for instance in instances]
            result.metrics[name] = VertexMetrics(
                name=name,
                parallelism=len(instances),
                messages=sum(loads),
                instance_loads=loads,
                state_sizes=[instance.state_size() for instance in instances],
            )
        return result


def run_topology(
    topology: Topology,
    workload: Iterable[Key | Message],
    seed: int = 0,
    num_external_sources: int = 1,
    mode: ModeLike | None = None,
) -> TopologyResult:
    """Validate, instantiate and run ``topology`` over ``workload``.

    ``mode`` (:class:`~repro.execution.ExecutionMode`, default
    ``columnar(1024)``) selects scalar — the depth-first per-message
    reference — or micro-batched execution of ``batch_size`` input messages
    at a time.  A micro-batched run ingests a workload that exposes
    ``iter_batches_columnar`` as interned key-id arrays (source edges route
    id arrays and terminal stateful vertices fold their shares in id space,
    so string keys are hashed once) and any other iterable — plain keys or
    pre-built messages — as message lists.  Results are byte-identical for
    every mode and representation, only the throughput changes.

    Examples
    --------
    >>> from repro.operators.aggregations import CountAggregator
    >>> topology = Topology("wordcount")
    >>> _ = topology.add_vertex("count", CountAggregator, parallelism=4)
    >>> _ = topology.set_source("count", scheme="PKG")
    >>> result = run_topology(topology, ["a", "b", "a", "c"] * 25)
    >>> result.vertex_metrics("count").messages
    100
    """
    runtime = TopologyRuntime(
        topology,
        seed=seed,
        num_external_sources=num_external_sources,
        mode=mode,
    )
    return runtime.run(workload)
