"""The heavy-hitter sketch.

The paper's head/tail split relies on detecting heavy hitters online with the
SpaceSaving algorithm (Metwally et al., ICDT 2005): each source runs its own
:class:`~repro.sketches.space_saving.SpaceSaving` over the sub-stream it
sees, and Algorithm 1's head test ``estimate >= theta * total`` is stated on
its estimates.  The stream-summary implementation gives O(1) amortised
updates, a fused bulk classification pass for batched routing, in-place
growth for rescales and a transplantable state for scheme switches.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".space_saving": ("FrequencyEstimate", "SpaceSaving"),
    },
)

__all__ = [
    "FrequencyEstimate",
    "SpaceSaving",
]
