"""W-Choices: head keys may go to any worker (least-loaded of all ``n``).

Conceptually equivalent to Greedy-d with ``d >> n ln n``, but as the paper
notes there is no need to hash the head keys at all — the sender simply picks
the least-loaded worker in its local load vector.  Tail keys keep the two
PKG choices.

W-Choices is the strongest scheme in terms of balance (it has full placement
freedom for the hot keys) and the most expensive in memory: a head key's
state may end up replicated on every worker.

Batching: the head path reads nothing but the load vector, so W-Choices
rides the id kernel of
:class:`~repro.partitioning.head_tail.HeadTailPartitioner` as is — one bulk sketch
pass to classify the chunk, then a selection pass whose head placements
("all" mode) take one ``min`` / ``count`` per load level and one
``list.index`` per message, all C scans of the load vector.
"""

from __future__ import annotations

from repro.partitioning.head_tail import HeadTailPartitioner
from repro.types import WorkerId


class WChoices(HeadTailPartitioner):
    """Head keys to the least-loaded of all workers, tail keys via PKG.

    Examples
    --------
    >>> wc = WChoices(num_workers=4, seed=0, warmup_messages=0)
    >>> workers = {wc.route("hot") for _ in range(400)}
    >>> len(workers) == 4      # the hot key eventually reaches every worker
    True
    """

    name = "W-C"

    def _head_selection(self) -> tuple[str, int]:
        return ("all", 0)

    def _select_head_worker(self, kid: int) -> WorkerId:
        # Placement reads only the load vector — the key is never decoded.
        # ``min`` + ``index`` both take the *first* minimum.
        loads = self._state.loads
        return loads.index(min(loads))
