"""Guard keeping docs/paper_mapping.md in lockstep with the registry.

Registering a new experiment without documenting which paper artifact it
reproduces (and how to regenerate it) fails here; so does documenting an
experiment that no longer exists.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.registry import get_experiment, list_experiments

MAPPING_PATH = Path(__file__).resolve().parents[2] / "docs" / "paper_mapping.md"

#: A mapping row starts with a backticked experiment id in the first column.
ROW_PATTERN = re.compile(r"^\|\s*`(?P<experiment_id>[a-z0-9_]+)`\s*\|")


def _mapping_rows() -> dict[str, str]:
    rows: dict[str, str] = {}
    for line in MAPPING_PATH.read_text(encoding="utf-8").splitlines():
        match = ROW_PATTERN.match(line)
        if match:
            rows[match.group("experiment_id")] = line
    return rows


@pytest.fixture(scope="module")
def mapping_rows() -> dict[str, str]:
    assert MAPPING_PATH.is_file(), f"missing {MAPPING_PATH}"
    return _mapping_rows()


def test_every_registered_experiment_is_documented(mapping_rows):
    missing = set(list_experiments()) - set(mapping_rows)
    assert not missing, (
        f"experiments registered but missing from docs/paper_mapping.md: "
        f"{sorted(missing)} — add one table row per experiment"
    )


def test_every_documented_experiment_is_registered(mapping_rows):
    stale = set(mapping_rows) - set(list_experiments())
    assert not stale, (
        f"docs/paper_mapping.md documents unregistered experiments: "
        f"{sorted(stale)} — delete the stale rows"
    )


def test_every_row_names_the_module_artifact_and_command(mapping_rows):
    for experiment_id, line in mapping_rows.items():
        descriptor = get_experiment(experiment_id)
        assert descriptor.artifact in line, (
            f"{experiment_id}: row must name the paper artifact "
            f"{descriptor.artifact!r}"
        )
        module_name = descriptor.run.__module__.rsplit(".", 1)[-1]
        assert module_name in line, (
            f"{experiment_id}: row must reference its driver module "
            f"{module_name}.py"
        )
        assert "suite run" in line and f"--experiments {experiment_id}" in line, (
            f"{experiment_id}: row must give the `suite run` command that "
            f"regenerates it"
        )
