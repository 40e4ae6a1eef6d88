"""Unified execution-mode API for every stream-execution backend.

A stream reaches a partitioner in one of two ways, and every entry point
(``run_simulation``, ``route_stream``, ``run_topology``, the cluster
runtime, the CLI) takes the choice as one value, ``mode=``:

>>> from repro.execution import ExecutionMode
>>> ExecutionMode.scalar()
ExecutionMode(kind='scalar', batch_size=1)
>>> ExecutionMode.parse("columnar:8192")
ExecutionMode(kind='columnar', batch_size=8192)
>>> ExecutionMode.parse("batched:2048")
ExecutionMode(kind='columnar', batch_size=2048)

* ``scalar`` runs each scheme's one per-message selection,
  ``_select_worker``, through ``route()`` / ``route_with_decision()`` (the
  latter adds the head bit) — the readable reference;
* ``columnar:N`` pushes chunks of ``N`` interned key ids through the id
  kernel (``route_batch_columnar``), the only batched implementation.

``batched[:N]`` is an accepted *spelling* of ``columnar[:N]`` — it used to
name a separate key-list path, which no longer exists — so scripts that
pass it keep working and get the same results.

Results are independent of the mode for every backend that shares a
process: scalar and columnar runs of the same seeded stream are bit-for-bit
identical (property-pinned); the mode only chooses the speed at which they
happen.  The cluster runtime requires a columnar mode, because its
shared-memory rings carry ``int64`` id arrays.

The columnar path itself is written once, here, for every backend: the
paper's evaluation setup (Section V-A) — ``s`` senders, each with its own
partitioner and local load vector, all sharing the hash seed, fed
round-robin from one stream — is a :class:`SenderGroup`, and :func:`spans`
cuts a stream into the id batches a group routes.  The simulation engine,
the dataflow runtime, the runtime's source process and ``route_stream`` are
consumers of those two names; the discrete-event ``ClusterEngine`` borrows
the group's construction only (its senders pull on credit, they are not
dealt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.partitioning.base import Partitioner
from repro.partitioning.registry import canonical_name, create_partitioner
from repro.types import Key
from repro.workloads.columnar import ColumnarBatch, iter_batches_columnar

#: Default chunk length of the columnar path, shared by every entry point.
DEFAULT_BATCH_SIZE = 1024

#: The backends selectable through :class:`ExecutionMode`.
KINDS = ("scalar", "columnar")

#: Anything the ``mode=`` parameters accept.
ModeLike = Union["ExecutionMode", str]

#: The spec grammar, quoted verbatim by every parse error so a CLI typo
#: shows the user what would have worked.
VALID_SPECS = (
    "scalar | columnar[:N] (e.g. 'columnar:4096'; "
    "batched[:N] is read as columnar[:N])"
)


@dataclass(frozen=True, slots=True)
class ExecutionMode:
    """How a stream is pushed through the routing layer.

    Attributes
    ----------
    kind:
        ``"scalar"`` (per-message ``route()`` loop) or ``"columnar"``
        (``route_batch_columnar`` over interned key-id arrays).
    batch_size:
        Chunk length of the columnar path.  Always 1 for scalar mode.
    """

    #: Class-level alias of the module's :data:`KINDS`.
    KINDS = KINDS

    kind: str
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"execution mode kind must be one of {KINDS}, got {self.kind!r}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.kind == "scalar" and self.batch_size != 1:
            raise ConfigurationError(
                "scalar mode routes one message at a time; "
                f"batch_size {self.batch_size} is meaningless "
                "(use ExecutionMode.scalar())"
            )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def scalar(cls) -> "ExecutionMode":
        """Per-message routing (``batch_size`` fixed at 1)."""
        return cls("scalar", 1)

    @classmethod
    def columnar(cls, batch_size: int = DEFAULT_BATCH_SIZE) -> "ExecutionMode":
        """Chunked ``route_batch_columnar`` routing over interned id arrays."""
        return cls("columnar", batch_size)

    @classmethod
    def parse(cls, spec: str) -> "ExecutionMode":
        """Parse a CLI-style spec: ``"scalar"`` or ``"columnar"``, the
        latter optionally with a chunk length — ``"columnar:4096"``.  The
        former kind name ``batched`` is read as ``columnar``.
        """
        if not isinstance(spec, str):
            raise ConfigurationError(
                f"mode spec must be a string, got {type(spec).__name__}; "
                f"valid specs: {VALID_SPECS}"
            )
        kind, _, size = spec.partition(":")
        kind = kind.strip().lower()
        if not kind:
            raise ConfigurationError(
                f"empty execution mode spec {spec!r}; "
                f"valid specs: {VALID_SPECS}"
            )
        if kind == "batched":
            kind = "columnar"
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown execution mode {kind!r} in spec {spec!r}; "
                f"valid specs: {VALID_SPECS}"
            )
        if not size:
            return cls.scalar() if kind == "scalar" else cls(kind)
        try:
            batch_size = int(size)
        except ValueError:
            raise ConfigurationError(
                f"batch size in mode spec {spec!r} must be an integer, "
                f"got {size!r}; valid specs: {VALID_SPECS}"
            ) from None
        if kind == "scalar":
            raise ConfigurationError(
                f"scalar mode takes no batch size (got {spec!r}); "
                f"valid specs: {VALID_SPECS}"
            )
        return cls(kind, batch_size)

    @classmethod
    def coerce(cls, value: ModeLike | None) -> "ExecutionMode":
        """Normalise a ``mode=`` argument: an instance, a spec string, or
        ``None`` for the default every entry point shares,
        ``columnar(DEFAULT_BATCH_SIZE)``."""
        if value is None:
            return cls.columnar()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise ConfigurationError(
            f"mode must be an ExecutionMode or a spec string, "
            f"got {type(value).__name__}"
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def is_scalar(self) -> bool:
        return self.kind == "scalar"

    @property
    def is_columnar(self) -> bool:
        return self.kind == "columnar"

    @property
    def spec(self) -> str:
        """Round-trippable spec string (what :meth:`parse` accepts)."""
        if self.kind == "scalar":
            return "scalar"
        return f"{self.kind}:{self.batch_size}"


class SenderGroup:
    """The senders of one edge: one partitioner per upstream instance.

    Load estimation and heavy-hitter tracking are local to each sender, as
    in the paper; message ``i`` of the edge's stream belongs to sender
    ``i % num_senders`` (the shuffle-grouped spout edge of Section V-A).
    """

    __slots__ = ("partitioners",)

    def __init__(self, partitioners: Sequence[Partitioner]) -> None:
        self.partitioners = list(partitioners)

    @classmethod
    def build(
        cls,
        scheme: str,
        num_senders: int,
        num_workers: int,
        seed: int = 0,
        **scheme_options: Any,
    ) -> "SenderGroup":
        """``num_senders`` fresh partitioners of ``scheme``.

        All senders share the hashing seed so they agree on each key's
        candidate workers — this is what makes routing-table-free schemes
        possible.  Shuffle grouping's only randomness is its starting
        offset, which must differ across senders (nothing about SG requires
        agreement), so sender ``i`` gets ``seed + i`` instead.
        """
        scheme = canonical_name(scheme)
        return cls(
            [
                create_partitioner(
                    scheme,
                    num_workers=num_workers,
                    seed=seed + sender if scheme == "SG" else seed,
                    **scheme_options,
                )
                for sender in range(num_senders)
            ]
        )

    @property
    def num_senders(self) -> int:
        return len(self.partitioners)

    def route_span(
        self, batch: ColumnarBatch, base_index: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Route one span of the stream; returns ``(workers, heads)``.

        ``workers`` holds one ``int64`` worker per message, in stream order;
        ``heads`` is the ``bool`` head mask, ``None`` when no sender
        classified any message of the span head — the id kernel's contract,
        span-wide.  ``base_index`` is the global stream index of the span's
        first message.  Each sender's share is a strided view over the id
        array, dealt by *global* index — the shift keeps the deal right when
        a span boundary (a workload's own chunk granularity, a rescale
        offset) is not a multiple of ``num_senders`` — and the routed shares
        scatter back into stream order by strided slice assignment.  Senders
        share no state, so every sender sees exactly the key subsequence
        per-message dealing would hand it.
        """
        senders = self.partitioners
        count = len(senders)
        if count == 1:
            return senders[0]._route_columnar(batch)
        workers = np.empty(len(batch), dtype=np.int64)
        heads = None
        for sender, partitioner in enumerate(senders):
            offset = (sender - base_index) % count
            share = batch.strided(offset, count)
            if not len(share):
                continue
            share_workers, share_heads = partitioner._route_columnar(share)
            workers[offset::count] = share_workers
            if share_heads is not None:
                if heads is None:
                    heads = np.zeros(len(batch), dtype=bool)
                heads[offset::count] = share_heads
        return workers, heads

    def rescale(self, policy, new_num_workers: int) -> None:
        """Apply a :class:`~repro.elasticity.policies.RescalePolicy` to
        every sender."""
        for partitioner in self.partitioners:
            policy.apply(partitioner, new_num_workers)

    def switch_log(self, sender_field: str = "sender", **labels: Any) -> list[dict]:
        """Scheme switches of the group's adaptive senders, in stream order.

        One dict per switch: the record's fields, then ``labels``, then the
        sender index under ``sender_field``.  Sorted by (per-sender
        position, sender): positions measure the same per-sender clock in
        every execution mode, so the log — unlike raw append order, which
        depends on how spans interleave the senders — is byte-identical
        across modes.  Empty for static schemes.
        """
        entries: list[tuple[int, int, dict]] = []
        for sender, partitioner in enumerate(self.partitioners):
            events = getattr(partitioner, "switch_events", None)
            if not callable(events):
                continue
            for record in events():
                row = record.to_dict()
                row.update(labels)
                row[sender_field] = sender
                entries.append((record.position, sender, row))
        entries.sort(key=lambda entry: entry[:2])
        return [row for _, _, row in entries]


def spans(
    stream: Iterable[Key],
    group: SenderGroup,
    mode: ExecutionMode,
    boundaries: Iterable[int] = (),
) -> Iterator[tuple[ColumnarBatch, int]]:
    """Cut ``stream`` into the id batches ``group`` routes.

    Yields ``(span, index)`` pairs, ``index`` being the global stream index
    of the span's first message.  Chunks hold ``mode.batch_size`` messages
    per sender; a workload exposing ``iter_batches_columnar`` emits them
    natively (array-backed streams intern whole draw chunks vectorized), any
    other key iterable goes through the generic chunker.  No span crosses
    one of ``boundaries`` (ascending global offsets, e.g. of rescale
    events): the consumer acts at a boundary when it receives the span that
    starts there, so every message with an index >= the offset is routed
    after the action, exactly as a per-message loop would.
    """
    chunk_size = mode.batch_size * group.num_senders
    if hasattr(stream, "iter_batches_columnar"):
        batches = stream.iter_batches_columnar(chunk_size)
    else:
        batches = iter_batches_columnar(stream, chunk_size)
    cuts = iter(boundaries)
    cut = next(cuts, None)
    index = 0
    for batch in batches:
        size = len(batch)
        start = 0
        while start < size:
            while cut is not None and cut <= index:
                cut = next(cuts, None)
            stop = size if cut is None else min(size, start + cut - index)
            whole = start == 0 and stop == size
            yield (batch if whole else batch.slice(start, stop)), index
            index += stop - start
            start = stop
