"""Common value types shared across the library.

The paper models a stream as a sequence of messages ``<t, k, v>`` where ``t``
is a timestamp, ``k`` a key drawn from a skewed distribution and ``v`` an
opaque value.  :class:`Message` mirrors that triple.  Most of the library only
cares about the key, so APIs generally accept either a :class:`Message` or a
bare key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence, Union

#: Keys can be anything hashable; the paper uses URLs, words and cashtags.
Key = Hashable

#: Worker identifiers are indices into ``range(n)`` (a prefix of the naturals,
#: as in Section II-B of the paper).
WorkerId = int


@dataclass(frozen=True, slots=True)
class Message:
    """A single stream tuple ``<t, k, v>``.

    Attributes
    ----------
    timestamp:
        Logical or wall-clock time of the tuple.  The simulators use logical
        sequence numbers; the cluster simulator uses simulated seconds.
    key:
        Grouping key.  Routing decisions depend only on this field.
    value:
        Opaque payload carried along; never inspected by partitioners.
    """

    timestamp: float
    key: Key
    value: object = None


@dataclass(slots=True)
class RoutingDecision:
    """What ``Partitioner.route_with_decision`` returns for one message.

    The scalar simulation engine reads both fields per message; what a
    scheme may route a key to is the pure ``Partitioner.key_candidates``.
    """

    worker: WorkerId
    #: True when the key was classified as a heavy hitter (head key) at the
    #: moment of routing.
    is_head: bool = False


@dataclass(slots=True)
class DatasetStats:
    """Summary statistics of a workload, mirroring Table I of the paper."""

    name: str
    symbol: str
    messages: int
    keys: int
    #: Probability (relative frequency) of the most frequent key, in [0, 1].
    p1: float
    description: str = ""

    def as_row(self) -> dict[str, Union[str, int, float]]:
        """Return the Table I row for this dataset."""
        return {
            "Dataset": self.name,
            "Symbol": self.symbol,
            "Messages": self.messages,
            "Keys": self.keys,
            "p1(%)": round(100.0 * self.p1, 2),
        }


@dataclass(slots=True)
class LoadSnapshot:
    """Per-worker load observed at a point in time.

    ``loads`` are absolute message counts; helper properties expose the
    normalised quantities used by the paper's imbalance definition.
    """

    time: float
    loads: list[int] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.loads)

    @property
    def normalized(self) -> list[float]:
        """Loads as fractions of the total (zero-safe)."""
        total = self.total
        if total == 0:
            return [0.0 for _ in self.loads]
        return [load / total for load in self.loads]

    @property
    def imbalance(self) -> float:
        """``I(t) = max_w L_w(t) - avg_w L_w(t)`` over normalised loads."""
        return loads_imbalance(self.loads)


def loads_imbalance(loads: Sequence[int]) -> float:
    """The paper's imbalance ``max_w L_w - avg_w L_w`` over normalised loads.

    ``loads`` are absolute per-worker message counts.  With ``T`` their sum
    and ``n`` their number, ``max/T - 1/n`` is ``(n*max - T) / (n*T)``: an
    integer over an integer, and Python rounds that one true division
    correctly.  So the value is exact to the last bit and the same on every
    interpreter, which a float ``sum`` of normalised loads is not (builtin
    ``sum`` became compensated in 3.12), and it is never negative.  Every
    substrate's ``imbalance`` is this function; 0.0 when nothing was routed.
    """
    total = sum(loads)
    if not total:
        return 0.0
    n = len(loads)
    return (n * max(loads) - total) / (n * total)
