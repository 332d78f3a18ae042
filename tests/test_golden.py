"""Byte-level regression guard on the bundled scenario's artefacts.

The files under tests/golden/<policy>/ were written by
`satfl run --scenario <bundled bremen_10sat.yaml> --policy <policy> --seed 1`.
A change that alters any of these bytes on purpose must regenerate them
with that command and explain the change.
"""

from pathlib import Path

import pytest

from satfl import bundled_scenario_path
from satfl.cli import main

GOLDEN = Path(__file__).parent / "golden"
POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")


@pytest.mark.parametrize("policy", POLICIES)
def test_bundled_scenario_matches_golden(policy, tmp_path):
    out = tmp_path / policy
    assert main(["run", "--scenario", str(bundled_scenario_path()),
                 "--out", str(out), "--policy", policy, "--seed", "1"]) == 0
    expected = sorted(p.name for p in (GOLDEN / policy).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / policy / name).read_bytes(), name
