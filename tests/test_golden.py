"""Byte-level regression guard on the bundled scenario's artefacts.

The files under tests/golden/<policy>/ were written by
`satfl run --scenario <bundled bremen_10sat.yaml> --policy <policy> --seed 1`,
and those under tests/golden/mlp/<policy>/ by the same command on
tests/golden/mlp/bremen_mlp.yaml (the bundled scenario with a 32-unit MLP
and 2000 samples per class). tests/golden/compare/comparison.csv was written
by `satfl compare --scenario <bundled bremen_10sat.yaml> --seed 1
--policies fedsat,fedsatschedule,fedavg_sync`. A change that alters any of
these bytes on purpose must regenerate them with that command and explain
the change.
"""

from pathlib import Path

import pytest

from satfl import bundled_scenario_path
from satfl.cli import main

GOLDEN = Path(__file__).parent / "golden"
POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
MLP_SCENARIO = GOLDEN / "mlp" / "bremen_mlp.yaml"


def check_golden(scenario, golden, policy, tmp_path):
    out = tmp_path / policy
    assert main(["run", "--scenario", str(scenario),
                 "--out", str(out), "--policy", policy, "--seed", "1"]) == 0
    expected = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize("policy", POLICIES)
def test_bundled_scenario_matches_golden(policy, tmp_path):
    check_golden(bundled_scenario_path(), GOLDEN / policy, policy, tmp_path)


@pytest.mark.parametrize("policy", POLICIES)
def test_mlp_scenario_matches_golden(policy, tmp_path):
    check_golden(MLP_SCENARIO, GOLDEN / "mlp" / policy, policy, tmp_path)


def test_compare_matches_golden(tmp_path):
    out = tmp_path / "compare"
    assert main(["compare", "--scenario", str(bundled_scenario_path()), "--out", str(out),
                 "--seed", "1", "--policies", ",".join(POLICIES)]) == 0
    assert (sorted(p.name for p in out.iterdir())
            == sorted(["comparison.csv", *(f"metrics_{p}.csv" for p in POLICIES)]))
    golden = GOLDEN / "compare" / "comparison.csv"
    assert (out / "comparison.csv").read_bytes() == golden.read_bytes()
    for policy in POLICIES:
        # each policy's log is the one `satfl run` writes for it
        assert ((out / f"metrics_{policy}.csv").read_bytes()
                == (GOLDEN / policy / "metrics.csv").read_bytes()), policy
