"""Workload (dataset) generators and loaders.

The paper evaluates on three real traces (Wikipedia page visits, Twitter
words, Twitter cashtags) and on synthetic Zipf streams (Table I).  The raw
traces are not redistributable, so this subpackage provides:

* :class:`~repro.workloads.zipf_stream.ZipfWorkload` — the ZF datasets;
* :mod:`~repro.workloads.synthetic` — Wikipedia-like, Twitter-like and
  Cashtag-like generators that match the published summary statistics
  (number of keys, p1, drift behaviour) at a laptop-friendly scale;
* :class:`~repro.workloads.drift.DriftingZipfWorkload` — the concept-drift
  machinery behind the Cashtag-like workload;
* :class:`~repro.workloads.file_stream.FileWorkload` — replay a stream from
  a text file (one key per line), for users who do have the original traces;
* :mod:`~repro.workloads.catalog` — the Table I registry mapping dataset
  symbols (WP, TW, CT, ZF) to generators and their statistics;
* :mod:`~repro.workloads.columnar` — :class:`KeyDictionary` /
  :class:`ColumnarBatch`, the interned-id stream representation behind
  ``iter_batches_columnar`` (see ``docs/columnar.md``).
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        ".base": ("Workload", "derive_seed", "materialize"),
        ".catalog": ("DATASETS", "dataset_stats", "load_dataset"),
        ".columnar": ("ColumnarBatch", "KeyDictionary", "iter_batches_columnar"),
        ".drift": ("DriftingZipfWorkload",),
        ".file_stream": ("FileWorkload",),
        ".synthetic": (
            "CashtagLikeWorkload",
            "TwitterLikeWorkload",
            "WikipediaLikeWorkload",
        ),
        ".zipf_stream": ("ZipfWorkload",),
    },
)

__all__ = [
    "DATASETS",
    "CashtagLikeWorkload",
    "ColumnarBatch",
    "DriftingZipfWorkload",
    "FileWorkload",
    "KeyDictionary",
    "TwitterLikeWorkload",
    "WikipediaLikeWorkload",
    "Workload",
    "ZipfWorkload",
    "dataset_stats",
    "derive_seed",
    "iter_batches_columnar",
    "load_dataset",
    "materialize",
]
