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

The CSVs print six decimals, so tests/golden/bits/ holds the same runs at
full precision, as float.hex text with one value per line: plan.hex has
every pass's rise_s, set_s and max_distance_m in contact_plan.csv's row
order, and <policy>.params.hex the final global model. The plan must match
to the bit. The model may move by 1e-12 (relative) with the BLAS kernel or
numpy's SIMD dispatch, so it is compared at rtol=1e-10. A change that moves
either on purpose regenerates them with `python tests/test_golden.py`.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from satfl import bundled_scenario_path, load_scenario, run_simulation
from satfl.cli import main

GOLDEN = Path(__file__).parent / "golden"
POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
MLP_SCENARIO = GOLDEN / "mlp" / "bremen_mlp.yaml"
BITS = {"bundled": bundled_scenario_path(), "mlp": MLP_SCENARIO}


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


def full_precision_run(name, policy):
    """The golden run's plan values and final model, as floats."""
    scenario = dataclasses.replace(load_scenario(BITS[name]), policy=policy, seed=1)
    r = run_simulation(scenario)
    plan = [v for ps in r.plan.passes for p in ps
            for v in (p.rise_s, p.set_s, p.max_distance_m)]
    return plan, r.final_params.tolist()


def read_hex(path):
    return [float.fromhex(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", BITS)
@pytest.mark.parametrize("policy", POLICIES)
def test_full_precision_matches_golden(name, policy):
    plan, params = full_precision_run(name, policy)
    assert plan == read_hex(GOLDEN / "bits" / name / "plan.hex")
    expected = read_hex(GOLDEN / "bits" / name / f"{policy}.params.hex")
    np.testing.assert_allclose(params, expected, rtol=1e-10, atol=0.0)


if __name__ == "__main__":
    # rewrite tests/golden/bits/ from the current code
    for name in BITS:
        for policy in POLICIES:
            plan, params = full_precision_run(name, policy)
            out = GOLDEN / "bits" / name
            out.mkdir(parents=True, exist_ok=True)
            (out / "plan.hex").write_text("".join(f"{v.hex()}\n" for v in plan))
            (out / f"{policy}.params.hex").write_text("".join(f"{v.hex()}\n" for v in params))
