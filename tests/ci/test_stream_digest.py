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

The ``routing:*`` lines hash one layer down — the per-message workers and
head flags of a five-sender group, for every scheme, after the script has
checked the columnar deal against the scalar one.  Their constants were
printed by the commit before the id kernel returned arrays instead of lists,
so they pin that every decision and flag survived that change.
Consistent grouping places its virtual nodes by hashing tuples, which
``PYTHONHASHSEED`` salts; the routing lines are therefore taken in a child
process with the seed pinned to 0.

The ``dchoices:*`` lines hash every FINDOPTIMALCHOICES solve of a
five-sender D-C group — sender, message count, ``d`` and the W-Choices
flag — and the ``switch_log:*`` line an adaptive group's switches.  Their
constants were printed by the commit before the solver took its head sums
in one pass, so they pin that no ``d`` moved with it.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
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

#: Taken with ``PYTHONHASHSEED=0`` (see the module docstring).
PARENT_ROUTING_DIGESTS_20K = {
    "routing:KG:zipf-1.4-1e4": "47df335243d74f208e778cf1afc8bba814546d64c89d500cdaf1179d9f610381",
    "routing:KG:wikipedia-like": "8287734d79d5294a74fab6da6ea28f683eb49a0b2adefe60f696deac1de35569",
    "routing:SG:zipf-1.4-1e4": "78eff61f4c4c81b241ee5b1d7dd8c66973815cb5448941252ea3c3cd6e4ef416",
    "routing:SG:wikipedia-like": "78eff61f4c4c81b241ee5b1d7dd8c66973815cb5448941252ea3c3cd6e4ef416",
    "routing:PKG:zipf-1.4-1e4": "ada5b0ef99b14adc8ef8603c76ed56a4a4cc80b44fb7c55cc2d8b11724f95705",
    "routing:PKG:wikipedia-like": "a116e878860e6c4397e1a36fda09626476f28148480f09885855ff09bfb62bd8",
    "routing:D-C:zipf-1.4-1e4": "8336b206f5f092bb2da4d2d9be3e6083fde3f88096a591b5c628aff19eaa12ff",
    "routing:D-C:wikipedia-like": "8bda9450438c3a778b256728481da419080a7fbed43bd549be144ad1166268df",
    "routing:W-C:zipf-1.4-1e4": "a370b88fc43beec0c07717676d5b2dcaf8e31713dbe4d5e2dce620541923bf68",
    "routing:W-C:wikipedia-like": "4e1a8467c1a9dc8544361ca59e4fe1580b075f4257758c0a9185071e00aef4fb",
    "routing:RR:zipf-1.4-1e4": "ffba272424433665a70c346b6aa198c1948be86958b8080a288db8a3fd7aa113",
    "routing:RR:wikipedia-like": "6c94dea8e5dacd65a13c2b691bb938c9cf38da3d7def47c0727f11d1e7368d6c",
    "routing:GREEDY-D:zipf-1.4-1e4": "836e89671336e0dbdafb4a70b060a066ee2bd772dd25c8431e426b15896f712f",
    "routing:GREEDY-D:wikipedia-like": "a05c0d5add22ac29830367f2ca759252e9287806bcd0493505c422e2cf6b5748",
    "routing:FIXED-D:zipf-1.4-1e4": "c01d00e3f4f08eefb549fc5bf54fa5c529a6d01c67a09a6c16b4e78d7d29d29d",
    "routing:FIXED-D:wikipedia-like": "30681aac4c4f5b3b430c0e9df1217899c1c4ffc26ac4c5a216c6389ebb438771",
    "routing:CH:zipf-1.4-1e4": "5e9fa4093733109de90d25ae95f586e7e470ae1cfd7456cd3671c02f48ddec36",
    "routing:CH:wikipedia-like": "694c1d43fca043a67be873cde162f07c47ab9af3aaa9fd03dc169aba5dfdb097",
    "routing:AD:zipf-1.4-1e4": "c44d575fdac49f6efb2a0c9e8314f558f68c29130e3718de3f411d5a2220035d",
    "routing:AD:wikipedia-like": "25868fde07c85010ee00abf1475415c07241daf962cc1a68a4b1c0892ad19bcd",
}


#: Taken with the solver's head sums still re-summed per prefix.
PARENT_SOLVER_DIGESTS_20K = {
    "dchoices:zipf-0.8-1e6": "b2ad9295b97be6a7e9756ce5981916987c5d441a2680df2f6b2715ab9449dbf5",
    "dchoices:zipf-1.4-1e4": "15d924e2bfcd59a1de349e1695061223fef86722f5253027573363e832652c52",
    "dchoices:wikipedia-like": "be4be51d89665fd912708ca4b08f85704242456e100ba96f769a0582c4e2db75",
    "switch_log:AD:scenario:drift_mixture": "e86188c422ecc12fba34e113a5add068e5df7ad7083bb5dffe21a6e5eb6918f9",
}

#: ``zipf-0.8-1e6`` at 205,000 messages, printed by the commit before the
#: forward map was caught up on first read.  The stream crosses the
#: workloads' 200,000-message draw chunk, so the second chunk's lookups read
#: a map the first chunk left to be caught up; every 20,000-message line
#: above is a single chunk.
PARENT_TWO_CHUNK_DIGEST = (
    "zipf-0.8-1e6",
    205_000,
    "bd6c28f905aa2f15945f3473831751a3d835a0a3f18f0b0c25ba15c0c416d4e4",
)


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


def test_two_chunk_digest_is_the_parents(stream_digest):
    name, messages, expected = PARENT_TWO_CHUNK_DIGEST
    workload = stream_digest.WORKLOADS[name](messages)
    assert stream_digest.stream_digest(workload) == expected



@pytest.fixture(scope="module")
def printed_20k():
    """``name -> digest`` printed by the script at 20,000 messages."""
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "stream_digest.py"),
         "--messages", "20000"],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, check=True,
    )
    return dict(line.split()[1::-1] for line in completed.stdout.splitlines())


def test_routing_digests_are_the_parents(printed_20k):
    routing = {
        name: value for name, value in printed_20k.items() if name.startswith("routing:")
    }
    assert routing == PARENT_ROUTING_DIGESTS_20K


def test_solver_digests_are_the_parents(printed_20k):
    solver = {
        name: value
        for name, value in printed_20k.items()
        if name.startswith(("dchoices:", "switch_log:"))
    }
    assert solver == PARENT_SOLVER_DIGESTS_20K


def test_solver_log_holds_every_solve(stream_digest):
    # One entry per solve, in each sender's order; the zipf-0.8 line covers
    # the sim_wide-shaped solves over hundreds of head keys.
    group = stream_digest._group("D-C", stream_digest.DCHOICES_WORKERS)
    log = stream_digest._record_solves(group)
    solved = []
    for sender, partitioner in enumerate(group.partitioners):
        def solve(_sender=sender, _solve=partitioner._find_optimal_choices):
            solution = _solve()
            solved.append((_sender, solution))
            return solution
        partitioner._find_optimal_choices = solve
    workload = stream_digest.WORKLOADS["zipf-0.8-1e6"](20_000)
    stream_digest.span_routing(group, workload, 20_000)
    assert [(sender, d, wc) for sender, _, d, wc in log] == [
        (sender, solution.num_choices, solution.use_w_choices)
        for sender, solution in solved
    ]
    assert max(solution.head_cardinality for _, solution in solved) > 400


def test_switch_log_line_sees_switches(stream_digest):
    group = stream_digest._group("AD")
    workload = stream_digest.WORKLOADS["scenario:drift_mixture"](20_000)
    stream_digest.span_routing(group, workload, 20_000)
    assert group.switch_log()


def test_cli_prints_one_line_per_workload(stream_digest, capsys):
    assert stream_digest.main(["--messages", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        *PARENT_DIGESTS_20K, *PARENT_ROUTING_DIGESTS_20K, *PARENT_SOLVER_DIGESTS_20K
    ]
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
            forward = dictionary.forward_map()
            first = next(iter(forward))
            forward[first] = forward.pop(first)

    assert stream_digest.stream_digest(Reordering(1.0, 50, 200, seed=3)) != plain
