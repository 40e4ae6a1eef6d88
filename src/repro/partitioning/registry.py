"""Factory for grouping schemes, keyed by the names used in the paper.

The simulators, experiments and the CLI all create partitioners through
:func:`create_partitioner` so a scheme can be selected with a plain string
("PKG", "D-C", ...), exactly as the tables and figures label them.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigurationError
from repro.partitioning.base import Partitioner
from repro.partitioning.consistent_grouping import ConsistentGrouping
from repro.partitioning.d_choices import DChoices
from repro.partitioning.fixed_d import FixedDHead
from repro.partitioning.greedy_d import GreedyD
from repro.partitioning.key_grouping import KeyGrouping
from repro.partitioning.partial_key_grouping import PartialKeyGrouping
from repro.partitioning.round_robin_head import RoundRobinHead
from repro.partitioning.shuffle_grouping import ShuffleGrouping
from repro.partitioning.w_choices import WChoices


def _build_adaptive(**kwargs) -> Partitioner:
    # Imported lazily: the adaptive partitioner builds its delegates through
    # this registry, so a module-level import would be circular.
    from repro.adaptive.partitioner import AdaptivePartitioner

    return AdaptivePartitioner(**kwargs)


_BUILDERS: dict[str, Callable[..., Partitioner]] = {
    "KG": KeyGrouping,
    "SG": ShuffleGrouping,
    "PKG": PartialKeyGrouping,
    "D-C": DChoices,
    "W-C": WChoices,
    "RR": RoundRobinHead,
    "GREEDY-D": GreedyD,
    "FIXED-D": FixedDHead,
    "CH": ConsistentGrouping,
    "AD": _build_adaptive,
}

_ALIASES: dict[str, str] = {
    "KEY": "KG",
    "KEY_GROUPING": "KG",
    "SHUFFLE": "SG",
    "SHUFFLE_GROUPING": "SG",
    "PARTIAL_KEY_GROUPING": "PKG",
    "DC": "D-C",
    "D_CHOICES": "D-C",
    "DCHOICES": "D-C",
    "WC": "W-C",
    "W_CHOICES": "W-C",
    "WCHOICES": "W-C",
    "ROUND_ROBIN": "RR",
    "ROUNDROBIN": "RR",
    "GREEDY": "GREEDY-D",
    "GREEDYD": "GREEDY-D",
    "FIXED_D": "FIXED-D",
    "FIXEDD": "FIXED-D",
    "CONSISTENT": "CH",
    "CONSISTENT_HASHING": "CH",
    "ADAPTIVE": "AD",
}


def available_schemes() -> tuple[str, ...]:
    """Canonical names of every registered grouping scheme."""
    return tuple(_BUILDERS)


def canonical_name(name: str) -> str:
    """Resolve aliases ("dchoices", "w_choices", ...) to the canonical name."""
    upper = name.strip().upper()
    if upper in _BUILDERS:
        return upper
    if upper in _ALIASES:
        return _ALIASES[upper]
    raise ConfigurationError(
        f"unknown grouping scheme {name!r}; known schemes: {sorted(_BUILDERS)}"
    )


def create_partitioner(name: str, num_workers: int, **kwargs) -> Partitioner:
    """Instantiate a grouping scheme by name.

    Keyword arguments are forwarded to the scheme's constructor, so callers
    can pass ``seed``, ``theta``, ``epsilon``, ``num_choices`` (for
    GREEDY-D), ``warmup_messages``, etc.  Unknown keywords raise
    ``TypeError``.

    Examples
    --------
    >>> pkg = create_partitioner("pkg", num_workers=10, seed=1)
    >>> pkg.name
    'PKG'
    """
    scheme = canonical_name(name)
    builder = _BUILDERS[scheme]
    return builder(num_workers=num_workers, **kwargs)


def head_aware_schemes() -> tuple[str, ...]:
    """Names of the schemes that treat heavy hitters specially."""
    return ("D-C", "W-C", "RR")
