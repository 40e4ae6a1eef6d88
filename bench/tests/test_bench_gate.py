"""The correctness gate: a wrong trial is counted as failed and emits no rate."""

import dataclasses

import pytest

import jobs
from harness import Trials
from jobs import Job, Outcome, check_trial

TINY = Job(
    name="tiny",
    why="unit-test sized",
    rounds=2,
    messages=3_000,
    num_workers=5,
    stream=jobs._zipf(1.4, 500),
    mode="columnar:256",
)


def test_a_right_trial_counts_and_a_wrong_load_vector_does_not():
    trials = Trials(TINY, seed=7)
    trials.oracles = {scheme: TINY.oracle(scheme, 7) for scheme in jobs.SCHEMES}
    assert trials.run("D-C") is not None
    assert trials.rate_metric("D-C").value > 0

    right = list(trials.oracles["PKG"].worker_loads)
    wrong = [right[1], right[0], *right[2:]] if right[0] != right[1] else [right[0] + 1, right[1] - 1, *right[2:]]
    forged = Outcome(seconds=0.01, messages=TINY.messages, loads=wrong, wall=0.01)
    assert trials.run("PKG", lambda: forged) is None
    assert trials.attempted == 2 and len(trials.failures) == 1
    assert "differs from the oracle" in trials.failures[0]
    assert trials.rate_metric("PKG") is None, "a failed trial contributes no rate"


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"messages": 2_999}, "routed 2999"),
        ({"loads": [600, 600, 600, 600, 599]}, "loads sum 2999"),
        ({"clean": False}, "restarted a worker"),
    ],
)
def test_every_listed_failure_is_caught(change, reason):
    good = Outcome(seconds=0.01, messages=3_000, loads=[600] * 5, wall=0.01)
    assert check_trial(good, [600] * 5, 3_000) is None
    assert reason in check_trial(dataclasses.replace(good, **change), [600] * 5, 3_000)


def test_cluster_gate_agrees_with_the_runtime_validator():
    job = dataclasses.replace(TINY, num_workers=2, num_sources=1, service_ns=0)
    oracle = job.oracle("PKG", 7)
    outcome = job.trial("PKG", 7)
    config, result = outcome.cluster
    assert check_trial(outcome, list(oracle.worker_loads), job.messages) is None
    assert jobs.validate_against_simulation(config, result)["loads_match"]
    assert job.warm_up("PKG", 7) is None

    swapped = dataclasses.replace(result, worker_processed=result.worker_processed[::-1])
    forged = dataclasses.replace(outcome, loads=list(swapped.worker_processed))
    if swapped.worker_processed != result.worker_processed:
        assert check_trial(forged, list(oracle.worker_loads), job.messages) is not None
        assert not jobs.validate_against_simulation(config, swapped)["loads_match"]
