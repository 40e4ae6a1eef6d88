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
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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
    for name, value in digests(args.messages).items():
        print(f"{value}  {name}  messages={args.messages}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
