"""Execution of a topology over a workload.

The runtime instantiates every vertex's operator instances and builds one
:class:`~repro.execution.SenderGroup` per edge — one partitioner per
upstream instance, so each sender routes with its own local load vector, as
in the paper.  :class:`~repro.execution.ExecutionMode` selects between the
scalar reference and micro-batched execution:

* **scalar**: every input message is pushed through the DAG depth-first,
  routed and processed one at a time — the reference semantics;
* **micro-batched** (``columnar:N``, the default): the stream is consumed
  as chunks of interned key ids (:func:`~repro.execution.spans`) and the
  DAG executes *stage by stage*.  Source edges hand the id chunk to their
  group's ``route_span`` (which deals it over the external sources and
  scatters the decisions back into stream order); internal edges route
  each sender's sub-batch through ``route_batch``; every operator instance
  processes its share via ``execute_batch`` (bulk folds).  What travels
  beside the ids follows from each chunk's contents: a chunk of plain keys
  is ids only — a terminal stateful vertex folds its shares in id space via
  ``execute_batch_ids``, so string keys are hashed exactly once, at
  interning, and any other consumer decodes the chunk once — while a chunk
  holding pre-built :class:`~repro.types.Message` objects keeps them as the
  payload.  Each partitioner and each operator instance observes exactly
  the sub-stream it would under scalar execution: results are
  byte-identical for every batch size (property-pinned), only the
  throughput changes.

Stage-by-stage execution delivers in arrival order only when every vertex
is fed by one edge.  A DAG with fan-in has to interleave its incoming
edges in depth-first order, so it runs the scalar loop under any mode.

The runtime collects per-vertex metrics (imbalance, per-instance loads,
state sizes) that mirror what the simulation engine reports for a single
edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from repro.dataflow.graph import Edge, Topology
from repro.exceptions import ConfigurationError
from repro.execution import ExecutionMode, ModeLike, SenderGroup, spans
from repro.operators.base import Operator
from repro.types import Key, Message, loads_imbalance
from repro.workloads.base import Workload
from repro.workloads.columnar import ColumnarBatch

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
        return loads_imbalance(self.instance_loads)

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
        self._num_external_sources = num_external_sources
        self._mode = ExecutionMode.coerce(mode)
        self._instances: dict[str, list[Operator]] = {
            vertex.name: [vertex.factory(i) for i in range(vertex.parallelism)]
            for vertex in topology.vertices.values()
        }
        self._edges = topology.edges
        # One sender group per edge: the external sources send on a source
        # edge, the upstream vertex's instances on every other.
        self._groups: list[SenderGroup] = [
            SenderGroup.build(
                edge.scheme,
                num_external_sources
                if edge.source == Topology.SOURCE
                else topology.vertex(edge.source).parallelism,
                topology.vertex(edge.target).parallelism,
                seed=seed + index * 1000,
                **edge.scheme_options,
            )
            for index, edge in enumerate(self._edges)
        ]
        # Stage plan for micro-batched execution: vertices in topological
        # order, with each vertex's incoming and outgoing edge indices.
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
        # Merge-free topologies (every vertex fed by exactly one edge) can
        # run stage by stage: each edge's delivery list is in arrival order
        # by construction.  Fan-in needs the depth-first scalar loop.
        self._merge_free = all(
            len(edges) == 1 for edges in self._incoming.values()
        )
        self._ingested = 0

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, workload: Iterable[Key | Message]) -> TopologyResult:
        """Push every message of ``workload`` through the topology."""
        if self._mode.is_scalar or not self._merge_free:
            self._run_scalar(workload)
        else:
            self._run_micro_batched(workload)
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
        partitioner = self._groups[edge_index].partitioners[sender]
        instance_index = partitioner.route(message.key)
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
    # micro-batched execution (stage by stage over id chunks)
    # ------------------------------------------------------------------ #
    def _run_micro_batched(self, workload: Iterable[Key | Message]) -> None:
        """Consume the stream as chunks of interned key ids.

        A :class:`~repro.workloads.base.Workload` is a key stream by type
        and is chunked as is.  Any other iterable may carry pre-built
        messages, so it is read through a key view that sets every item
        aside: a chunk that held messages keeps them as its payload (plain
        keys among them become messages, as in the scalar loop), a chunk of
        plain keys travels as ids alone.
        """
        held: list[Key | Message] = []

        def bare_keys() -> Iterator[Key]:
            for raw in workload:
                held.append(raw)
                yield raw.key if isinstance(raw, Message) else raw

        stream = workload if isinstance(workload, Workload) else bare_keys()
        source_group = self._groups[self._source_edge_indices[0]]
        for batch, _ in spans(stream, source_group, self._mode):
            base = self._ingested
            self._ingested += len(batch)
            chunk = held[: len(batch)]
            del held[: len(batch)]
            messages = None
            if any(isinstance(raw, Message) for raw in chunk):
                messages = [
                    raw if isinstance(raw, Message) else Message(
                        timestamp=float(base + offset), key=raw
                    )
                    for offset, raw in enumerate(chunk)
                ]
            self._execute_merge_free(batch, messages, base)

    @staticmethod
    def _decode(batch: ColumnarBatch, base: int) -> list[Message]:
        """The messages the scalar loop would have built for an id chunk."""
        return [
            Message(timestamp=float(base + offset), key=key)
            for offset, key in enumerate(batch.keys())
        ]

    def _execute_merge_free(
        self, batch: ColumnarBatch, source_messages: list[Message] | None, base: int
    ) -> None:
        """Stage-wise micro-batch execution for merge-free topologies.

        With a single incoming edge per vertex there is nothing to
        interleave, so deliveries travel in arrival order by construction.
        Routing goes per sender and processing per instance through
        ``execute_batch``, so every partitioner and operator sees its scalar
        sub-stream.

        A queued edge payload is ``(senders, messages)``.  ``senders`` is
        ``None`` for the external stream — ``batch``, dealt and routed by
        the source edge's group, with ``source_messages`` (``None`` when
        the chunk is ids alone) — an int when every delivery has the same
        sender, or a per-delivery sender list.
        """
        pending: list[tuple[object, list[Message] | None] | None] = (
            [None] * len(self._edges)
        )
        for edge_index in self._source_edge_indices:
            pending[edge_index] = (None, source_messages)
        for vertex_name in self._stage_order:
            edge_index = self._incoming[vertex_name][0]
            payload = pending[edge_index]
            if payload is None:
                continue
            pending[edge_index] = None
            senders, messages = payload
            group = self._groups[edge_index]
            instances = self._instances[vertex_name]
            outgoing = self._outgoing[vertex_name]
            # --- route: one batched call per distinct sender ------------ #
            if senders is None:
                workers = group.route_span(batch, base)[0].tolist()
                if messages is None:
                    if not outgoing and all(
                        hasattr(instance, "execute_batch_ids")
                        for instance in instances
                    ):
                        # Terminal stateful vertex: fold shares in id space
                        # — no Message objects, one decode per distinct key.
                        self._fold_terminal_ids(instances, workers, batch)
                        continue
                    # Anything else consumes messages: decode the chunk once.
                    messages = self._decode(batch, base)
            elif type(senders) is int:
                workers = group.partitioners[senders].route_batch(
                    list(map(_MESSAGE_KEY, messages))
                )
            else:
                by_sender: dict[int, list[int]] = {}
                for position, sender in enumerate(senders):
                    positions = by_sender.get(sender)
                    if positions is None:
                        by_sender[sender] = [position]
                    else:
                        positions.append(position)
                workers = [0] * len(messages)
                for sender, positions in by_sender.items():
                    routed = group.partitioners[sender].route_batch(
                        [messages[position].key for position in positions]
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
        """Fold a terminal id-only share per instance, in id space."""
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

    def _build_result(self) -> TopologyResult:
        switch_log: list[dict] = []
        for edge, group in zip(self._edges, self._groups):
            switch_log.extend(group.switch_log(edge=f"{edge.source}->{edge.target}"))
        # Position first, then edge/sender: a deterministic stream order
        # that is identical across execution modes (per-sender positions
        # are unique within an edge).
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
    reference — or micro-batched execution over chunks of interned key ids
    (``N`` input messages per external source at a time): source edges
    route id arrays and terminal stateful vertices fold their shares in id
    space, so string keys are hashed once; chunks of pre-built messages
    keep them as the payload beside the ids.  A topology with fan-in runs
    the scalar loop under any mode.  Results are byte-identical for every
    mode, only the throughput changes.

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
