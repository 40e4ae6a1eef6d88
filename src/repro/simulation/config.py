"""Configuration of a partitioning simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.elasticity.events import RescalePlan, as_plan
from repro.exceptions import ConfigurationError
from repro.execution import ExecutionMode

#: Default number of sources used throughout the paper's simulations.
DEFAULT_NUM_SOURCES = 5


@dataclass(slots=True)
class SimulationConfig:
    """Parameters of one simulation run.

    Attributes
    ----------
    scheme:
        Name of the grouping scheme ("PKG", "D-C", "W-C", "RR", "KG", "SG",
        "GREEDY-D"); resolved through the partitioner registry.
    num_workers:
        Number of downstream workers ``n``.
    num_sources:
        Number of sources ``s``; the input stream is split across them
        round-robin (shuffle grouping from the spout, as in the paper).
    seed:
        Base seed; source ``i`` uses ``seed + i`` for any scheme-internal
        randomness while all sources share the same *hashing* seed so they
        agree on key candidates.
    scheme_options:
        Extra keyword arguments forwarded to the partitioner constructor
        (``theta``, ``epsilon``, ``num_choices``, ``warmup_messages`` ...).
    track_interval:
        Record the imbalance every ``track_interval`` messages.  0 disables
        the time series (only the final snapshot is kept), which speeds up
        large sweeps.
    track_head_tail:
        When True, per-worker load is additionally split into head/tail
        contributions (needed by the Figure 8 experiment).
    mode:
        How the stream is pushed through the sources: an
        :class:`~repro.execution.ExecutionMode` or a spec string —
        ``"scalar"`` (the per-message oracle) or ``"columnar:N"`` (each
        source routes chunks of ``N`` interned key ids through
        ``route_batch_columnar``; the default, with ``N = 1024``).  The
        engine chunks the stream, splits every chunk over the sources
        round-robin and re-interleaves the decisions, so results are
        byte-identical for every mode and chunk length (sources are
        independent); in columnar mode worker-side key state and migration
        accounting operate in id space (a bijection over the keys actually
        seen).  Always normalised to an :class:`ExecutionMode` instance.
    imbalance_window:
        When > 0, additionally track the *per-window* imbalance: the load
        imbalance of each consecutive span of ``imbalance_window`` messages
        in isolation (see
        :class:`~repro.simulation.metrics.WindowedImbalanceSeries`).  The
        worst window is reported as
        :attr:`~repro.simulation.results.SimulationResult.worst_window_imbalance`
        — the metric the adaptive-partitioning experiment compares schemes
        on, because cumulative imbalance dilutes transient drift.  0 (the
        default) disables the series.
    rescale_plan:
        Optional elasticity schedule: a
        :class:`~repro.elasticity.events.RescalePlan` or a spec string like
        ``"join@5000,leave@12000,fail@15000"`` (normalised to a plan here).
        Events fire at their global stream offsets; ``num_workers`` is the
        *initial* worker count.  ``None``/empty reproduces the paper's
        fixed-worker setting.
    rescale_policy, migration_window:
        How spec-string plans are executed ("rehash", "migrate" or
        "remap") and the transition-window length in tuples (see
        :mod:`repro.elasticity.policies`); ignored when ``rescale_plan`` is
        already a :class:`RescalePlan` (which carries its own).
    """

    scheme: str
    num_workers: int
    num_sources: int = DEFAULT_NUM_SOURCES
    seed: int = 0
    scheme_options: dict[str, Any] = field(default_factory=dict)
    track_interval: int = 0
    track_head_tail: bool = False
    imbalance_window: int = 0
    mode: ExecutionMode | str | None = None
    rescale_plan: RescalePlan | str | None = None
    rescale_policy: str = "rehash"
    migration_window: int = 1000

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.num_sources < 1:
            raise ConfigurationError(
                f"num_sources must be >= 1, got {self.num_sources}"
            )
        if self.track_interval < 0:
            raise ConfigurationError(
                f"track_interval must be >= 0, got {self.track_interval}"
            )
        if self.imbalance_window < 0:
            raise ConfigurationError(
                f"imbalance_window must be >= 0, got {self.imbalance_window}"
            )
        self.mode = ExecutionMode.coerce(self.mode)
        self.rescale_plan = as_plan(
            self.rescale_plan,
            policy=self.rescale_policy,
            migration_window=self.migration_window,
        )
        if self.rescale_plan is not None:
            self.rescale_plan.validate_for(self.num_workers)
