"""The verdict rule of ``benchmarks/ab_pairs.py``, on canned runs.

The tool decides whether a performance claim stands (``choosing-metrics``
guide, section 8): a gain needs nine pairs in ten *and* a median gap beyond
the parent's own spread; a metric whose spread exceeds its bound is
unresolved, never "unchanged"; counts must match to the last digit; a failed
trial fails the comparison.  These are the edges a refactor of the tool
could soften without any benchmark noticing.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

RATE = {"name": "msgs_per_s.D-C", "unit": "msg/s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
BALANCE = {"name": "balance.D-C", "unit": "ratio", "better": "higher", "bound": 0.05}


@pytest.fixture(scope="module")
def ab():
    """Import benchmarks/ab_pairs.py as a module."""
    path = REPO_ROOT / "benchmarks" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


#: Ten parent runs around 700k msg/s with an IQR of ~10k.
PARENT = [700e3, 705e3, 695e3, 702e3, 698e3, 710e3, 690e3, 703e3, 697e3, 701e3]


class TestGain:
    def test_nine_of_ten_and_a_gap_beyond_the_parents_iqr(self, ab):
        change = [value * 1.2 for value in PARENT]
        change[3] = PARENT[3] * 0.99  # one lost pair is allowed
        row = ab.judge(RATE, PARENT, change)
        assert (row.verdict, row.won, row.pairs) == ("gain", 9, 10)
        assert row.ratio == pytest.approx(1.2, rel=0.01)
        assert not row.failed

    def test_eight_of_ten_is_not_a_gain_whatever_the_medians_say(self, ab):
        change = [value * 1.2 for value in PARENT]
        change[3] = change[6] = 600e3
        row = ab.judge(RATE, PARENT, change)
        assert row.won == 8
        assert row.verdict == "unchanged"

    def test_ten_of_ten_inside_the_parents_iqr_is_not_a_gain(self, ab):
        # Every pair won by a hair: consistent, but smaller than the
        # distance between the parent's own quartiles.
        change = [value + 1e3 for value in PARENT]
        row = ab.judge(RATE, PARENT, change)
        assert row.won == 10 and row.parent_iqr > 1e3
        assert row.verdict == "unchanged"

    def test_a_tie_counts_for_neither_side(self, ab):
        change = [value * 1.2 for value in PARENT]
        change[0], change[1] = PARENT[0], PARENT[1]
        row = ab.judge(RATE, PARENT, change)
        assert row.won == 8 and row.verdict != "gain"

    def test_lower_is_better_metrics_win_by_falling(self, ab):
        parent = [0.250, 0.252, 0.249, 0.251, 0.250, 0.253, 0.248, 0.251, 0.250, 0.252]
        faster = ab.judge(SETUP, parent, [value * 0.8 for value in parent])
        slower = ab.judge(SETUP, parent, [value * 1.1 for value in parent])
        assert (faster.verdict, faster.won) == ("gain", 10)
        assert (slower.verdict, slower.won) == ("unchanged", 0)


class TestNoRegression:
    def test_worse_than_the_bound_is_a_regression(self, ab):
        row = ab.judge(RATE, PARENT, [value * 0.7 for value in PARENT])
        assert row.verdict == "regression" and row.failed

    def test_worse_within_the_bound_and_a_tight_spread_is_unchanged(self, ab):
        row = ab.judge(RATE, PARENT, [value * 0.9 for value in PARENT])
        assert row.verdict == "unchanged" and not row.failed

    def test_spread_beyond_the_bound_is_unresolved_not_unchanged(self, ab):
        # setup_s on a noisy machine: quartiles 40 % apart, bound 25 %.
        parent = [0.20, 0.30, 0.22, 0.31, 0.21, 0.29, 0.20, 0.32, 0.23, 0.30]
        change = [0.21, 0.29, 0.23, 0.30, 0.22, 0.30, 0.21, 0.31, 0.22, 0.31]
        row = ab.judge(SETUP, parent, change)
        assert row.verdict == "unresolved" and not row.failed

    def test_a_noisy_change_alone_is_enough_to_be_unresolved(self, ab):
        change = [500e3, 900e3] * 5
        assert ab.judge(RATE, PARENT, change).verdict == "unresolved"

    def test_noisy_but_every_run_better_than_every_parent_run(self, ab):
        # A bimodal parent: its IQR swallows the median gap (no gain) and
        # its spread exceeds the bound — but no run of the change read worse
        # than any run of the parent, so "no worse" is not in doubt.
        parent = [100e3] * 5 + [200e3] * 5
        change = [201e3 + step for step in range(10)]
        row = ab.judge(RATE, parent, change)
        assert row.won == 10 and row.parent_iqr == 100e3
        assert row.verdict == "unchanged"
        # One run of the change inside the parent's range and it is in doubt.
        change[7] = 199e3
        assert ab.judge(RATE, parent, change).verdict == "unresolved"


class TestCounts:
    def test_equal_to_the_last_digit(self, ab):
        value = 0.9506833036244801
        assert ab.judge(BALANCE, [value] * 10, [value] * 10).verdict == "identical"

    def test_one_run_off_by_one_ulp_is_a_change(self, ab):
        value = 0.9506833036244801
        change = [value] * 9 + [0.9506833036244802]
        row = ab.judge(BALANCE, [value] * 10, change)
        assert row.verdict == "CHANGED" and row.failed

    def test_a_better_count_is_still_a_change(self, ab):
        # Balance moving at all means routing moved: never a "gain".
        row = ab.judge(BALANCE, [0.95] * 10, [0.99] * 10)
        assert row.verdict == "CHANGED" and row.failed


class TestRuns:
    def test_failed_trials_and_missing_results_fail_the_run(self, ab):
        ok = {"correct": True, "attempted": 120, "failed": 0, "metrics": {}}
        assert ab.run_failure(ok) is None
        assert "3 of 120" in ab.run_failure({**ok, "failed": 3, "correct": False})
        assert ab.run_failure({**ok, "correct": False}) is not None
        assert "no result" in ab.run_failure({**ok, "error": "Traceback ..."})

    def test_unequal_sides_are_rejected(self, ab):
        with pytest.raises(ValueError):
            ab.judge(RATE, PARENT, PARENT[:-1])
        with pytest.raises(ValueError):
            ab.judge(RATE, [], [])

    def test_end_to_end_over_two_stub_checkouts(self, ab, tmp_path, capsys):
        # Two "checkouts" whose benchmark command prints a canned result: the
        # whole loop — alternate, parse the last line, judge, exit code.
        def checkout(name: str, rate: float, failed: int = 0) -> Path:
            root = tmp_path / name
            root.mkdir()
            result = {
                "correct": not failed, "attempted": 4, "failed": failed,
                "metrics": {
                    "msgs_per_s.D-C": {"value": rate, "unit": "msg/s"},
                    "balance.D-C": {"value": 0.95, "unit": "ratio"},
                },
            }
            (root / "stub.py").write_text(
                "import json, sys\n"
                "assert sys.argv[1:] == ['--workload', 'sim_hot', '--seed', '31'], sys.argv\n"
                f"print('# noise')\nprint(json.dumps({result!r}))\n"
            )
            spec = {"command": ["python3", "stub.py"], "end_to_end": [RATE, BALANCE, SETUP]}
            (root / "BENCHMARK.json").write_text(json.dumps(spec))
            return root

        parent = checkout("parent", 700e3)
        argv = ["--workload", "sim_hot", "--seed", "31", "--pairs", "2"]
        assert ab.main([str(parent), str(checkout("faster", 900e3)), *argv]) == 0
        out = capsys.readouterr().out
        assert "pair  0 parent" in out and "pair  1 change" in out
        assert out.index("pair  1 change") < out.index("pair  1 parent")  # order alternates
        assert "gain" in out and "identical" in out and "setup_s" not in out
        assert ab.main([str(parent), str(checkout("broken", 900e3, failed=1)), *argv]) == 1
        assert "FAILED pair 0 change: 1 of 4 trials failed" in capsys.readouterr().out
