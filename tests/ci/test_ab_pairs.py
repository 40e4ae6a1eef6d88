"""The verdict rule of ``benchmarks/ab_pairs.py``, on canned runs.

The tool decides whether a performance claim stands (``choosing-metrics``
guide, section 8): a gain needs nine pairs in ten *and* a median gap beyond
the parent's own spread; a metric whose spread exceeds its bound is
unresolved, never "unchanged"; counts must match to the last digit; a failed
trial fails the comparison.  These are the edges a refactor of the tool
could soften without any benchmark noticing.

The nightly workflow acts on nothing but the tool's exit code, so the ways a
run or a metric can go missing, the command line's refusals and the staging
that must leave both checkouts as they were are pinned here too.
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


class TestControlLeg:
    """The A/A leg: the parent against a second copy of itself."""

    @staticmethod
    def path_speed_checkout(root: Path) -> Path:
        # The same "commit" wherever it sits; its speed grows with the length
        # of the directory it runs from, as a layout effect would make it.
        root.mkdir()
        (root / "stub.py").write_text(
            "import json, os\n"
            "rate = 1000.0 * len(os.getcwd())\n"
            "print(json.dumps({'correct': True, 'attempted': 4, 'failed': 0, 'metrics': {\n"
            "    'msgs_per_s.D-C': {'value': rate, 'unit': 'msg/s'},\n"
            "    'balance.D-C': {'value': 0.95, 'unit': 'ratio'}}}))\n"
        )
        spec = {"command": [sys.executable, "stub.py"], "end_to_end": [RATE, BALANCE]}
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
        return root

    def test_a_noisy_control_overrules_the_claim(self, ab):
        change = [value * 1.2 for value in PARENT]
        row = ab.judge_with_control(RATE, PARENT, change, control=change)
        assert row.control == "gain" and row.verdict == "instrument-noisy" and row.failed
        quiet = ab.judge_with_control(RATE, PARENT, change, control=list(reversed(PARENT)))
        assert (quiet.control, quiet.verdict) == ("unchanged", "gain")

    def test_a_claim_needs_an_unchanged_control(self, ab):
        noisy = [500e3, 900e3] * 5  # unresolved against the parent, never a gain
        row = ab.judge_with_control(RATE, PARENT, [value * 1.2 for value in PARENT], noisy)
        assert (row.control, row.verdict) == ("unresolved", "instrument-noisy")
        # No claim to overrule: an unresolved control leaves "unchanged" be.
        same = ab.judge_with_control(RATE, PARENT, list(PARENT), noisy)
        assert (same.control, same.verdict) == ("unresolved", "unchanged")

    def test_same_commit_at_a_longer_path_is_instrument_noisy(self, ab, tmp_path, capsys):
        # Unstaged trees at paths of different lengths: the control, a copy
        # of the parent, reads the path effect as a gain, and so overrules it.
        parent = self.path_speed_checkout(tmp_path / "p")
        longer = self.path_speed_checkout(tmp_path / "same-commit-at-a-longer-path")
        trees = {"parent": parent, "change": longer, "control": longer}
        assert ab.compare(trees, [RATE, BALANCE], "sim_hot", 2016, 3) == 1
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("msgs_per_s.D-C"))
        assert row.split()[-2:] == ["instrument-noisy", "(msg/s)"]
        assert " gain " in row  # the A/A leg read the path as a gain too
        assert "FAILED msgs_per_s.D-C: instrument-noisy (A/A gain)" in out
        assert f"cwd={longer} env=" in out  # every run records where it ran

    def test_staged_copies_run_from_paths_of_one_length(self, ab, tmp_path, capsys):
        parent = self.path_speed_checkout(tmp_path / "p")
        longer = self.path_speed_checkout(tmp_path / "same-commit-at-a-longer-path")
        argv = ["--workload", "sim_hot", "--pairs", "3", "--stage-dir", str(tmp_path)]
        assert ab.main([str(parent), str(longer), *argv]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("msgs_per_s.D-C"))
        assert row.split()[-3:] == ["unchanged", "unchanged", "(msg/s)"]
        cwds = {line.split("cwd=")[1].split()[0] for line in out.splitlines() if "cwd=" in line}
        assert len(cwds) == 3 and len({len(cwd) for cwd in cwds}) == 1



def stub_checkout(root: Path, source: str, end_to_end=(RATE, BALANCE), script="stub.py") -> Path:
    """A "checkout" whose benchmark command runs ``source`` as ``script``."""
    root.mkdir(parents=True)
    (root / script).write_text(source)
    spec = {"command": [sys.executable, script], "end_to_end": list(end_to_end)}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def printing(rate: float | None = 700e3, balance: float = 0.95) -> str:
    """Stub source that prints one canned result (no rate when ``rate`` is None)."""
    metrics = {"balance.D-C": {"value": balance, "unit": "ratio"}}
    if rate is not None:
        metrics["msgs_per_s.D-C"] = {"value": rate, "unit": "msg/s"}
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}
    return f"import json\nprint(json.dumps({result!r}))\n"


def listing(root: Path) -> dict[str, bytes]:
    files = (path for path in root.rglob("*") if path.is_file())
    return {str(path.relative_to(root)): path.read_bytes() for path in files}


class TestVerdictEdges:
    def test_worse_by_exactly_the_bound_is_not_a_regression(self, ab):
        assert ab.judge(RATE, [800.0] * 10, [600.0] * 10).verdict == "unchanged"
        assert ab.judge(RATE, [800.0] * 10, [599.0] * 10).verdict == "regression"

    def test_the_bound_is_the_metrics_own(self, ab):
        change = [value * 0.9 for value in PARENT]
        assert ab.judge(RATE, PARENT, change).verdict == "unchanged"
        assert ab.judge({**RATE, "bound": 0.05}, PARENT, change).verdict == "regression"

    def test_lower_is_better_metrics_regress_by_rising(self, ab):
        row = ab.judge(SETUP, [0.25] * 10, [0.35] * 10)
        assert (row.verdict, row.won) == ("regression", 0) and row.failed

    def test_a_metric_that_reads_zero_is_unresolved(self, ab):
        # No spread relative to a zero median can be inside the bound.
        assert ab.judge(RATE, [0.0] * 10, [0.0] * 10).verdict == "unresolved"

    def test_one_pair_is_judged_by_the_same_rule(self, ab):
        assert ab.summary([3.0]) == (3.0, 3.0, 3.0)
        verdicts = [ab.judge(RATE, [1.0], [change]).verdict for change in (2.0, 1.0, 0.5)]
        assert verdicts == ["gain", "unchanged", "regression"]

    def test_ratio_of_a_zero_parent_median_is_nan(self, ab):
        row = ab.judge(RATE, [0.0] * 4, [1.0] * 4)
        assert row.ratio != row.ratio

    def test_only_regression_changed_and_noise_fail(self, ab):
        failing = ["regression", "CHANGED", "instrument-noisy"]
        verdicts = ["gain", "unchanged", "unresolved", "identical", *failing]
        rows = [ab.Row("m", "u", verdict, (1.0,) * 3, (1.0,) * 3, 0, 1) for verdict in verdicts]
        assert [row.verdict for row in rows if row.failed] == failing

    def test_a_parent_count_that_differs_from_itself_is_instrument_noisy(self, ab):
        row = ab.judge_with_control(BALANCE, [0.95] * 10, [0.95] * 10, [0.95] * 9 + [0.96])
        assert (row.control, row.verdict) == ("CHANGED", "instrument-noisy") and row.failed


class TestExitCodes:
    """``compare`` over stub checkouts: what the nightly's exit code rests on."""

    @staticmethod
    def compare(ab, tmp_path, source: str, pairs: int = 1, entries=(RATE, BALANCE)) -> int:
        parent = stub_checkout(tmp_path / "parent", printing())
        change = stub_checkout(tmp_path / "change", source)
        trees = {"parent": parent, "change": change, "control": parent}
        return ab.compare(trees, list(entries), "sim_hot", 2016, pairs)

    def test_a_regression_exits_nonzero(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, printing(rate=350e3), pairs=2) == 1
        assert "FAILED msgs_per_s.D-C: regression (A/A unchanged)" in capsys.readouterr().out

    def test_a_changed_count_exits_nonzero(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, printing(balance=0.96)) == 1
        assert "FAILED balance.D-C: CHANGED (A/A identical)" in capsys.readouterr().out

    def test_a_crashed_run_is_reported_with_its_last_stderr_line(self, ab, tmp_path, capsys):
        crash = "import sys\nprint('# started')\nsys.exit('Traceback\\nRuntimeError: boom')\n"
        assert self.compare(ab, tmp_path, crash) == 1
        out = capsys.readouterr().out
        assert "FAILED pair 0 change: no result (RuntimeError: boom)" in out
        assert "FAILED msgs_per_s.D-C: missing from some runs" in out

    def test_a_last_line_that_is_not_json_is_no_result(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, printing() + "print('done')\n") == 1
        assert "FAILED pair 0 change: no result (done)" in capsys.readouterr().out

    def test_a_result_without_metrics_is_no_result(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, "print('{\"correct\": true}')\n") == 1
        assert "FAILED pair 0 change: no result ({" in capsys.readouterr().out

    def test_a_metric_missing_from_some_runs_fails(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, printing(rate=None)) == 1
        out = capsys.readouterr().out
        assert "FAILED msgs_per_s.D-C: missing from some runs" in out
        assert "FAILED balance" not in out  # the metric both sides report is still judged

    def test_no_metric_in_common_with_the_benchmark_fails(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, printing(), entries=(SETUP,)) == 1
        assert "setup_s" not in capsys.readouterr().out.split("# sim_hot")[1]

    def test_pairs_rotate_through_all_three_orders(self, ab, tmp_path, capsys):
        assert self.compare(ab, tmp_path, printing(), pairs=3) == 0
        lines = capsys.readouterr().out.splitlines()
        runs = [line.split()[1:3] for line in lines if line.startswith("pair")]
        order = "parent change control change control parent control parent change".split()
        assert runs == [[str(index // 3), side] for index, side in enumerate(order)]


class TestCommandLine:
    @pytest.mark.parametrize("argv, message", [
        (["--workload", "w", "--pairs", "0"], "--pairs must be at least 1"),
        ([], "--workload"),
    ])
    def test_refused_arguments_exit_2(self, ab, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            ab.main([str(tmp_path), str(tmp_path), *argv])
        assert exit_.value.code == 2 and message in capsys.readouterr().err

    def test_each_checkout_runs_its_own_command(self, ab, tmp_path, capsys):
        # The change's spec names another script and no metrics: its script
        # runs, and the metrics judged are still the parent's.
        parent = stub_checkout(tmp_path / "p", printing())
        change = stub_checkout(tmp_path / "c", printing(900e3), end_to_end=(), script="other.py")
        argv = ["--workload", "sim_hot", "--pairs", "1", "--stage-dir", str(tmp_path)]
        assert ab.main([str(parent), str(change), *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(line for line in lines if line.startswith("msgs_per_s.D-C"))
        assert row.split()[-2:] == ["gain", "(msg/s)"]


class TestStaging:
    def test_stage_leaves_out_history_caches_and_run_outputs(self, ab, tmp_path):
        kept = ["BENCHMARK.json", "bench/run.py", "src/out/keep.txt", "src/pkg/mod.py"]
        dropped = [
            ".git/HEAD", "src/pkg/__pycache__/mod.pyc", ".pytest_cache/v", ".hypothesis/db",
            "results/r.json", "src/repro.egg-info/PKG-INFO", "bench/out/r.json",
        ]
        for name in kept + dropped:
            (tmp_path / "tree" / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "tree" / name).write_text(name)
        assert sorted(listing(ab.stage(tmp_path / "tree", tmp_path / "staged"))) == sorted(kept)

    def test_stage_keeps_symlinks_as_links(self, ab, tmp_path):
        (tmp_path / "tree").mkdir()
        (tmp_path / "tree" / "link").symlink_to("BENCHMARK.json")
        staged = ab.stage(tmp_path / "tree", tmp_path / "staged")
        assert str((staged / "link").readlink()) == "BENCHMARK.json"

    def test_staging_is_removed_and_checkouts_untouched_on_failure(self, ab, tmp_path, capsys):
        trees = [stub_checkout(tmp_path / "p", printing())]
        trees.append(stub_checkout(tmp_path / "c", "raise SystemExit(3)\n"))
        before = [listing(tree) for tree in trees]
        (tmp_path / "stage").mkdir()
        argv = ["--workload", "sim_hot", "--pairs", "1", "--stage-dir", str(tmp_path / "stage")]
        assert ab.main([*map(str, trees), *argv]) == 1
        assert "FAILED pair 0 change: no result (no output)" in capsys.readouterr().out
        assert list((tmp_path / "stage").iterdir()) == []
        assert [listing(tree) for tree in trees] == before


class TestConditions:
    def test_describe_lists_only_the_flags_that_are_set(self, ab):
        flags = {"optimize": 2, "debug": 0, "safe_path": True}
        ran_under = {"cwd": "/x", "env_bytes": 12, "flags": flags}
        assert ab.describe(ran_under) == "cwd=/x env=12B flags=optimize=2,safe_path=1"
        assert ab.describe({**ran_under, "flags": {"debug": 0}}).endswith("flags=-")
        assert ab.describe({**ran_under, "flags": None}).endswith("flags=-")

    def test_conditions_fall_back_when_the_interpreter_prints_nothing(self, ab, tmp_path):
        silent = tmp_path / "silent"
        silent.write_text("#!/bin/sh\nexit 0\n")
        silent.chmod(0o755)
        fallback = {"cwd": str(tmp_path), "env_bytes": None, "flags": None}
        assert ab.conditions(tmp_path, [str(silent)]) == fallback
