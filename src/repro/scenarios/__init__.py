"""Scenario catalog: seeded traffic patterns with expected-assertion bounds.

The package splits a workload scenario into three declarative layers:

- **truth** (:mod:`repro.scenarios.truth`) — the key-popularity process:
  which keys exist and how popular each is over time;
- **render** (:mod:`repro.scenarios.render`) — how that traffic arrives:
  order, burstiness, duplication;
- **spec** (:mod:`repro.scenarios.spec`) — the named declaration binding a
  pattern, a required seed, render options and an ``expected:`` block of
  post-run assertions.

:mod:`repro.scenarios.catalog` holds the named catalog; every entry is
validated at import time and must declare expected bounds.  A
:class:`~repro.scenarios.workload.ScenarioWorkload` renders a spec at a
concrete scale through the standard workload contracts, so scenarios run
unchanged through ``route_stream``, the simulation engine and the dataflow
runtime — scalar, batched or columnar.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".catalog": (
            "CATALOG",
            "assert_result",
            "build_workload",
            "check_result",
            "get_scenario",
            "list_scenarios",
        ),
        ".render": ("RENDERERS", "Renderer", "make_renderer"),
        ".spec": ("ExpectedBounds", "RenderSpec", "ScenarioSpec"),
        ".truth": ("PATTERNS", "Truth", "make_truth"),
        ".workload": ("ScenarioWorkload",),
    },
)

__all__ = [
    "CATALOG",
    "PATTERNS",
    "RENDERERS",
    "ExpectedBounds",
    "RenderSpec",
    "Renderer",
    "ScenarioSpec",
    "ScenarioWorkload",
    "Truth",
    "assert_result",
    "build_workload",
    "check_result",
    "get_scenario",
    "list_scenarios",
    "make_renderer",
    "make_truth",
]
