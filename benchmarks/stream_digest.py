#!/usr/bin/env python
"""One SHA-256 per workload over everything the source layer produces.

    python benchmarks/stream_digest.py [--messages N] > here.txt
    diff here.txt <(python /other/checkout/benchmarks/stream_digest.py)

The source layer (draws -> ``KeyDictionary`` interning -> folded keys) must
be byte-identical across any change that only makes it faster: an id, a
fold or a draw that moves changes every routed load vector downstream.
Each line hashes, for one seeded workload streamed through
``iter_batches_columnar(5_000)``:

* every id array, in stream order;
* ``dictionary.folded`` (the hash-family input per id);
* the decoded key list (``repr``, so ``1`` and ``"1"`` differ);
* ``list(dictionary._forward.items())`` — the forward map *in insertion
  order*: ``key -> id`` entered in id order, as element-wise ``intern``
  leaves it, whichever bulk route issued the ids.

The script reads the checkout it lives in (it puts that checkout's ``src/``
first on the path, as ``bench/run.py`` does), so two trees are compared by
running each tree's copy and diffing the output.  ``--messages`` above
``200_000`` crosses the workloads' draw-chunk boundary.

The ``routing:<scheme>:<workload>`` lines go one layer down: for every
registered scheme over two of the workloads, the per-message worker
sequence (``int64``) and head flags (``bool``) of a five-sender
:class:`~repro.execution.SenderGroup` — the paper's deal (Section V-A).
The stream is routed twice, through ``spans`` / ``route_span`` on
``columnar:4096`` and through the scalar ``route_with_decision`` deal
(message ``i`` to sender ``i % 5``); the script fails unless the two agree,
then hashes the result.  A kernel change that only makes routing faster must
leave every one of these lines alone.

The ``dchoices:<workload>`` lines pin D-Choices' solver: every time a sender
of a five-sender D-C group re-solves FINDOPTIMALCHOICES, the sender index,
its message count and the solution's ``(d, use_w_choices)`` are logged, on
both deals (they must agree), and the log is hashed.  ``zipf-0.8-1e6`` at
100 workers is the benchmark's ``sim_wide`` shape, whose early heads hold
hundreds of keys.  The ``switch_log:AD:<workload>`` line hashes the
adaptive group's scheme switches the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.execution import ExecutionMode, SenderGroup, spans  # noqa: E402
from repro.partitioning.registry import available_schemes  # noqa: E402
from repro.scenarios.catalog import build_workload  # noqa: E402
from repro.workloads.columnar import KeyDictionary  # noqa: E402
from repro.workloads.drift import DriftingZipfWorkload  # noqa: E402
from repro.workloads.synthetic import WikipediaLikeWorkload  # noqa: E402
from repro.workloads.zipf_stream import ZipfWorkload  # noqa: E402

BATCH_SIZE = 5_000
SEED = 2016

#: name -> factory(num_messages).  The two Zipf shapes are the repo
#: benchmark's ``sim_wide`` and ``sim_hot`` key spaces; WP carries string
#: keys; the drifting stream crosses epoch boundaries; the two scenarios
#: cover the i.i.d. and the bursty renderer.
WORKLOADS = {
    "zipf-0.8-1e6": lambda n: ZipfWorkload(0.8, 1_000_000, n, seed=SEED),
    "zipf-1.4-1e4": lambda n: ZipfWorkload(1.4, 10_000, n, seed=SEED),
    "wikipedia-like": lambda n: WikipediaLikeWorkload(num_messages=n, seed=SEED),
    "drifting-zipf": lambda n: DriftingZipfWorkload(
        1.0, 50_000, n, num_epochs=8, drift_fraction=0.5, seed=SEED
    ),
    "scenario:drift_mixture": lambda n: build_workload("drift_mixture", n, 5_000),
    "scenario:bursty_flash_crowd": lambda n: build_workload(
        "bursty_flash_crowd", n, 5_000
    ),
}


#: The workloads of the routing lines: the benchmark's ``sim_hot`` key space
#: (integer keys, p1 = 0.32) and string keys at the paper's real-data skew.
ROUTING_WORKLOADS = ("zipf-1.4-1e4", "wikipedia-like")
ROUTING_SENDERS = 5
ROUTING_WORKERS = 50
ROUTING_MODE = ExecutionMode.columnar(4096)
#: Constructor options of the schemes that need one; AD's clocks are short
#: enough for its senders to switch within a few thousand messages.
ROUTING_OPTIONS: dict[str, dict[str, object]] = {
    "GREEDY-D": {"num_choices": 4},
    "FIXED-D": {"num_choices": 5},
    "AD": {"check_interval": 200, "policy": "dwell=300"},
}


#: The workloads of the solver lines; 100 workers is ``sim_wide``'s ``n``.
DCHOICES_WORKLOADS = ("zipf-0.8-1e6", "zipf-1.4-1e4", "wikipedia-like")
DCHOICES_WORKERS = 100
SWITCH_LOG_WORKLOADS = ("scenario:drift_mixture",)


def stream_digest(workload) -> str:
    """Hex SHA-256 of the workload's ids, folds, keys and forward map."""
    dictionary = KeyDictionary()
    digest = hashlib.sha256()
    for batch in workload.iter_batches_columnar(BATCH_SIZE, dictionary):
        digest.update(batch.ids.tobytes())  # int64 by ColumnarBatch's contract
    digest.update(dictionary.folded.tobytes())
    keys = dictionary.decode(np.arange(len(dictionary)))
    digest.update(repr(keys).encode("utf-8"))
    digest.update(repr(list(dictionary._forward.items())).encode("utf-8"))
    return digest.hexdigest()


def _group(scheme: str, num_workers: int = ROUTING_WORKERS) -> SenderGroup:
    return SenderGroup.build(
        scheme, ROUTING_SENDERS, num_workers, seed=SEED,
        **ROUTING_OPTIONS.get(scheme, {}),
    )


def span_routing(group: SenderGroup, workload, num_messages: int):
    """``(workers, heads)`` of the columnar deal: ``spans`` -> ``route_span``."""
    workers = np.empty(num_messages, dtype=np.int64)
    heads = np.zeros(num_messages, dtype=bool)
    for span, index in spans(workload, group, ROUTING_MODE):
        span_workers, span_heads = group.route_span(span, index)
        workers[index : index + len(span)] = span_workers
        if span_heads is not None:
            heads[index : index + len(span)] = span_heads
    return workers, heads


def scalar_routing(group: SenderGroup, workload):
    """``(workers, heads)`` of the per-message oracle deal."""
    senders = group.partitioners
    decisions = [
        senders[index % len(senders)].route_with_decision(key)
        for index, key in enumerate(workload)
    ]
    return (
        np.array([decision.worker for decision in decisions], dtype=np.int64),
        np.array([decision.is_head for decision in decisions], dtype=bool),
    )


def routing_digest(scheme: str, factory, num_messages: int) -> str:
    """Hex SHA-256 of one scheme's worker and head-flag sequences."""
    workers, heads = span_routing(_group(scheme), factory(num_messages), num_messages)
    oracle_workers, oracle_heads = scalar_routing(_group(scheme), factory(num_messages))
    if not (
        np.array_equal(workers, oracle_workers) and np.array_equal(heads, oracle_heads)
    ):
        raise AssertionError(f"{scheme}: the columnar deal differs from the scalar one")
    digest = hashlib.sha256()
    digest.update(workers.tobytes())
    digest.update(heads.tobytes())
    return digest.hexdigest()


def routing_digests(num_messages: int) -> dict[str, str]:
    return {
        f"routing:{scheme}:{name}": routing_digest(
            scheme, WORKLOADS[name], num_messages
        )
        for scheme in available_schemes()
        for name in ROUTING_WORKLOADS
    }


def _record_solves(group: SenderGroup) -> list[tuple[int, int, int, bool]]:
    """Log ``(sender, routed, d, use_w_choices)`` at every solve of ``group``.

    Each sender's checkpoint hook is wrapped; a check that re-solved leaves a
    new solution object behind (the solver returns a fresh one every time).
    """
    log: list[tuple[int, int, int, bool]] = []
    for sender, partitioner in enumerate(group.partitioners):
        def recording(routed, _sender=sender, _partitioner=partitioner,
                      _check=partitioner._maybe_recompute_at):
            before = _partitioner._solution
            _check(routed)
            solution = _partitioner._solution
            if solution is not before:
                log.append(
                    (_sender, routed, solution.num_choices, solution.use_w_choices)
                )
        partitioner._maybe_recompute_at = recording
    return log


def _both_deals(scheme: str, factory, num_messages: int, num_workers: int, observe):
    """Hex SHA-256 of what ``observe`` saw on the columnar deal, after
    checking that the scalar deal saw the same.

    ``observe(group)`` runs before routing and returns a zero-argument
    callable that reads the observation after it.
    """
    observed = []
    for columnar in (True, False):
        group = _group(scheme, num_workers)
        read = observe(group)
        if columnar:
            span_routing(group, factory(num_messages), num_messages)
        else:
            scalar_routing(group, factory(num_messages))
        observed.append(read())
    if observed[0] != observed[1]:
        raise AssertionError(f"{scheme}: the columnar deal differs from the scalar one")
    return hashlib.sha256(repr(observed[0]).encode("utf-8")).hexdigest()


def _solves(group: SenderGroup):
    # Sorted by (sender, routed): append order depends on how spans
    # interleave the senders.
    log = _record_solves(group)
    return lambda: sorted(log)


def _switches(group: SenderGroup):
    return group.switch_log


def solver_digests(num_messages: int) -> dict[str, str]:
    """D-C's solves per workload, and AD's switch log."""
    lines = {
        f"dchoices:{name}": _both_deals(
            "D-C", WORKLOADS[name], num_messages, DCHOICES_WORKERS, _solves
        )
        for name in DCHOICES_WORKLOADS
    }
    for name in SWITCH_LOG_WORKLOADS:
        lines[f"switch_log:AD:{name}"] = _both_deals(
            "AD", WORKLOADS[name], num_messages, ROUTING_WORKERS, _switches
        )
    return lines


def digests(num_messages: int) -> dict[str, str]:
    return {
        name: stream_digest(factory(num_messages))
        for name, factory in WORKLOADS.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--messages", type=int, default=460_000,
        help="stream length per workload (default: 460000)",
    )
    args = parser.parse_args(argv)
    lines = {
        **digests(args.messages),
        **routing_digests(args.messages),
        **solver_digests(args.messages),
    }
    for name, value in lines.items():
        print(f"{value}  {name}  messages={args.messages}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
