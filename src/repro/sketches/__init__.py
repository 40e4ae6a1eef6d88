"""The heavy-hitter sketch.

The paper's head/tail split relies on detecting heavy hitters online with the
SpaceSaving algorithm (Metwally et al., ICDT 2005): each source runs its own
:class:`~repro.sketches.space_saving.SpaceSaving` over the sub-stream it
sees, and Algorithm 1's head test ``estimate >= theta * total`` is stated on
its estimates.  The stream-summary implementation gives O(1) amortised
updates, a fused bulk classification pass for batched routing, in-place
growth for rescales, a transplantable state for scheme switches and the
mergeable-summaries merge (Berinde et al., TODS 2010) the top-k operator
uses.
"""

from repro.sketches.space_saving import FrequencyEstimate, SpaceSaving

__all__ = [
    "FrequencyEstimate",
    "SpaceSaving",
]
