"""Window assigners and windowed aggregation.

Streaming aggregations are usually scoped to time windows.  The assigner
maps a message timestamp to the start time of its (tumbling) window;
:class:`WindowedAggregator` keeps one accumulator per (window, key) pair and
exposes closed windows for downstream consumption.

Windows interact with the paper's topic in one important way: the *key* of
the windowed state is still the message key, so the same skew that breaks
key grouping for running aggregates breaks it for windowed aggregates — the
examples use this operator on top of D-Choices-grouped edges.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterator, Sequence

from repro.exceptions import ConfigurationError
from repro.operators.base import Operator
from repro.types import Key, Message

_NO_OUTPUT: tuple[Message, ...] = ()


class TumblingWindowAssigner:
    """Fixed, non-overlapping windows of ``size`` time units.

    Examples
    --------
    >>> assigner = TumblingWindowAssigner(size=10.0)
    >>> assigner.assign(23.0)
    (20.0,)
    """

    def __init__(self, size: float) -> None:
        if size <= 0.0:
            raise ConfigurationError(f"window size must be positive, got {size}")
        self._size = size

    def assign(self, timestamp: float) -> tuple[float, ...]:
        """``(start,)`` of the one window ``timestamp`` falls in."""
        start = (timestamp // self._size) * self._size
        return (start,)

    def window_end(self, start: float) -> float:
        return start + self._size


class WindowedAggregator(Operator):
    """Per-(window, key) aggregation with watermark-driven window closing.

    Parameters
    ----------
    assigner:
        The tumbling window assigner.
    fold:
        Binary function folding a message value into the accumulator.
    initializer:
        Zero-argument callable producing the initial accumulator.
    allowed_lateness:
        How far behind the maximum observed timestamp a window end may lag
        before the window is considered closed and emitted.
    """

    def __init__(
        self,
        assigner: TumblingWindowAssigner,
        fold: Callable[[object, object], object],
        initializer: Callable[[], object],
        allowed_lateness: float = 0.0,
        instance_id: int = 0,
    ) -> None:
        super().__init__(instance_id)
        if allowed_lateness < 0.0:
            raise ConfigurationError(
                f"allowed_lateness must be >= 0, got {allowed_lateness}"
            )
        self._assigner = assigner
        self._fold = fold
        self._initializer = initializer
        self._allowed_lateness = allowed_lateness
        # (window_start, key) -> accumulator
        self._windows: dict[tuple[float, Key], object] = {}
        self._watermark = float("-inf")

    @property
    def watermark(self) -> float:
        """Largest timestamp observed so far."""
        return self._watermark

    def state_size(self) -> int:
        return len(self._windows)

    def open_windows(self) -> Iterator[tuple[float, Key]]:
        return iter(self._windows)

    def process(self, message: Message) -> Iterator[Message]:
        self._watermark = max(self._watermark, message.timestamp)
        for start in self._assigner.assign(message.timestamp):
            slot = (start, message.key)
            accumulator = self._windows.get(slot)
            if accumulator is None:
                accumulator = self._initializer()
            self._windows[slot] = self._fold(accumulator, message.value)
        yield from self._close_expired()

    def process_batch(self, messages: Sequence[Message]) -> list[Sequence[Message]]:
        """Bulk windowed fold with an earliest-deadline close guard.

        Byte-identical to the scalar loop — window closes stay attached to
        the exact input message whose watermark advance triggered them, so
        downstream routing sees the same sub-streams — but the per-message
        expired scan (O(open windows) in :meth:`process`) only runs when the
        advancing cutoff actually reaches the earliest open window end.  On
        a tumbling window of ``w`` messages that is one scan per window
        instead of one per message.
        """
        assigner = self._assigner
        assign = assigner.assign
        window_end = assigner.window_end
        windows = self._windows
        get = windows.get
        fold = self._fold
        initializer = self._initializer
        lateness = self._allowed_lateness
        watermark = self._watermark
        infinity = float("inf")
        min_end = min(
            (window_end(start) for start, _ in windows), default=infinity
        )
        outputs: list[Sequence[Message]] = []
        append = outputs.append
        for message in messages:
            timestamp = message.timestamp
            if timestamp > watermark:
                watermark = timestamp
            key = message.key
            value = message.value
            for start in assign(timestamp):
                slot = (start, key)
                accumulator = get(slot)
                if accumulator is None:
                    accumulator = initializer()
                    end = window_end(start)
                    if end < min_end:
                        min_end = end
                windows[slot] = fold(accumulator, value)
            if watermark - lateness >= min_end:
                self._watermark = watermark
                append(list(self._close_expired()))
                min_end = min(
                    (window_end(start) for start, _ in windows),
                    default=infinity,
                )
            else:
                append(_NO_OUTPUT)
        self._watermark = watermark
        return outputs

    def _close_expired(self) -> Iterator[Message]:
        cutoff = self._watermark - self._allowed_lateness
        expired = [
            slot
            for slot in self._windows
            if self._assigner.window_end(slot[0]) <= cutoff
        ]
        for start, key in sorted(expired):
            value = self._windows.pop((start, key))
            yield Message(timestamp=self._assigner.window_end(start), key=key,
                          value=(start, value))

    def flush(self) -> list[Message]:
        """Emit every still-open window (end of stream)."""
        emitted = []
        for (start, key), value in sorted(self._windows.items(), key=lambda kv: kv[0]):
            emitted.append(
                Message(timestamp=self._assigner.window_end(start), key=key,
                        value=(start, value))
            )
        self._windows.clear()
        return emitted

    def results_by_window(self) -> dict[float, dict[Key, object]]:
        """Open windows grouped by start time (for inspection/tests)."""
        grouped: dict[float, dict[Key, object]] = defaultdict(dict)
        for (start, key), value in self._windows.items():
            grouped[start][key] = value
        return dict(grouped)
