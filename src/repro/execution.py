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

* ``scalar`` runs the per-message oracle (``route()`` /
  ``route_with_decision()``) — the readable reference;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.exceptions import ConfigurationError

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
