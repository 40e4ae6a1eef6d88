"""``benchmarks/stream_digest.py`` against digests taken on the parent commit.

The script hashes, per workload, every id array, the folded keys, the
decoded keys and the forward map in order — everything the source layer
(draws -> interning -> fold) hands downstream.  The constants below were
printed by the commit *before* that layer was vectorised (PR 22: bulk key
issue, numpy key fold, CDF-ordered draws), so this test is the standing
proof that the rewrite, and whatever follows it, moved no id, no fold and
no draw.  They were taken with numpy 2.4 on x86-64 Linux; a platform whose
``pow`` rounds a Zipf weight differently would move a CDF entry by an ulp
and with it *every* digest at once — compare two checkouts on that
platform with the script instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

PARENT_DIGESTS_20K = {
    "zipf-0.8-1e6": "2a83dfc4130d93e3b388d3d5130bc0b70d504768b391936750e54f89fb9bc46d",
    "zipf-1.4-1e4": "5a4bb35ad782223ef2aa3b44ca779cee518ff330b88c4cefa0903b554eba10df",
    "wikipedia-like": "7f9a33929bbb13ceab5dcabf2d69db7ff60c4d5ae2a6e8999a69312b37bef599",
    "drifting-zipf": "e0ae63ce2652fd672204ed894d73f1c5548a2e6bf67dd0c26f279e01a8f5dfc2",
    "scenario:drift_mixture": "3f5ed6c9d390a3225a6d715fed6286763ac7f41dc0ecfa02702246848c5c9f8f",
    "scenario:bursty_flash_crowd": "3ecbb59791019948154e4981e51433af616a1cdcfaa0b9071cfde2c82a792aa4",
}


@pytest.fixture(scope="module")
def stream_digest():
    """Import benchmarks/stream_digest.py as a module."""
    path = REPO_ROOT / "benchmarks" / "stream_digest.py"
    spec = importlib.util.spec_from_file_location("stream_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_are_the_parents(stream_digest):
    assert stream_digest.digests(20_000) == PARENT_DIGESTS_20K


def test_cli_prints_one_line_per_workload(stream_digest, capsys):
    assert stream_digest.main(["--messages", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == list(PARENT_DIGESTS_20K)
    assert all(line.endswith("messages=300") and len(line.split()[0]) == 64 for line in lines)


def test_digest_sees_the_forward_map_order(stream_digest):
    # Two dictionaries with the same ids, folds and keys but a different
    # forward-map order (element-wise ``intern`` enters it in id order)
    # must differ.
    from repro.workloads.zipf_stream import ZipfWorkload

    workload = ZipfWorkload(1.0, 50, 200, seed=3)
    plain = stream_digest.stream_digest(workload)
    assert plain == stream_digest.stream_digest(workload)

    class Reordering(type(workload)):
        def iter_batches_columnar(self, batch_size=8192, dictionary=None):
            yield from super().iter_batches_columnar(batch_size, dictionary)
            first = next(iter(dictionary._forward))
            dictionary._forward[first] = dictionary._forward.pop(first)

    assert stream_digest.stream_digest(Reordering(1.0, 50, 200, seed=3)) != plain
