"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion (visible with
pytest -s or in captured output on failure).
"""

import numpy as np
import pytest

from satfl import bundled_scenario_path
from satfl.cli import main
from satfl.engine import compare_runs, run_simulation
from satfl.learning import (
    generate_synthetic_task,
    local_sgd,
    make_learner,
    partition_non_iid,
)
from satfl.orbital import (
    compute_contact_plan,
    flatten_constellation,
    orbital_period,
)
from satfl.scenario import load_scenario, with_overrides
from satfl.scheduler import Mode

from conftest import brute_force_passes, softmax_loss
from test_engine import small_scenario
from test_orbital import T_500_KM, T_2000_KM
from test_scheduler import first_mode, make_plan


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def bundled(bremen_scenario):
    return bremen_scenario


@pytest.fixture(scope="module")
def bundled_plan(bundled):
    return compute_contact_plan(
        bundled.orbit_specs(), bundled.ground_station(),
        bundled.horizon_s, bundled.coarse_step_s,
    )


def test_criterion_1_orbital_periods():
    err_500 = abs(orbital_period(500e3) - T_500_KM)
    err_2000 = abs(orbital_period(2000e3) - T_2000_KM)
    report(
        1, err_500 <= 1.0 and err_2000 <= 1.0,
        f"period errors {err_500:.2e} s (500 km), {err_2000:.2e} s (2000 km)",
    )


def test_criterion_2_contact_plan_oracle(bundled, bundled_plan):
    gs = bundled.ground_station()
    flat = flatten_constellation(bundled.orbit_specs())
    worst = 0.0
    for k, (orbit, idx) in enumerate(flat):
        oracle = brute_force_passes(orbit, idx, gs, bundled.horizon_s, 1.0)
        assert len(bundled_plan.passes[k]) == len(oracle), (
            f"satellite {k}: pass count mismatch"
        )
        for p, (rise, set_) in zip(bundled_plan.passes[k], oracle):
            # the scan reports the grid instant before each crossing, so
            # the true instant lies in (grid, grid + 1]; compare midpoints
            worst = max(
                worst, abs(p.rise_s - (rise + 0.5)), abs(p.set_s - (set_ + 0.5))
            )
    report(2, worst <= 1.0, f"max rise/set deviation from 1 s scan {worst:.3f} s")


def test_criterion_3_pass_statistics(bundled, bundled_plan):
    orbits = bundled.orbit_specs()
    flat = flatten_constellation(orbits)
    durations = {500e3: [], 2000e3: []}
    for k, (orbit, _) in enumerate(flat):
        durations[orbit.altitude_m] += [
            p.duration_s for p in bundled_plan.passes[k]
        ]
    mean_low = np.mean(durations[500e3])
    mean_high = np.mean(durations[2000e3])
    gaps_vary = True
    for k, (orbit, _) in enumerate(flat):
        period = orbital_period(orbit.altitude_m)
        gaps = np.diff([p.rise_s for p in bundled_plan.passes[k]])
        if len(gaps) and np.all(np.abs(gaps - period) <= 1.0):
            gaps_vary = False
    report(
        3, mean_high > mean_low and gaps_vary,
        f"mean pass {mean_high:.0f} s at 2000 km vs {mean_low:.0f} s at 500 km; "
        f"revisit gaps differ from the orbital period",
    )


def test_criterion_4_decision_truth_table():
    failures = []
    for duration in (60.0, 300.0, 600.0, 1800.0):
        for t_l in (30.0, 900.0, 1800.0):
            plan = make_plan([[(0.0, 100.0), (1000.0, 1000.0 + duration)]])
            mode = first_mode(plan, t_l)
            expected = (
                Mode.TRAIN_OFFLINE if duration < t_l else Mode.TRAIN_ONLINE
            )
            if mode is not expected:
                failures.append((duration, t_l, mode))
    report(4, not failures, f"12-point duration x training-time grid, "
                            f"{len(failures)} mismatches (tie goes online)")


def test_criterion_5_policy_containment(bundled, bundled_plan, tmp_path):
    from satfl.exports import write_metrics_csv

    longest = max(
        p.duration_s for passes in bundled_plan.passes for p in passes
    )
    t_l = 1.5 * longest
    runs = {
        policy: run_simulation(
            with_overrides(bundled, policy=policy, train_time_s=t_l)
        )
        for policy in ("fedsat", "fedsatschedule")
    }
    same_schedule = (
        runs["fedsat"].schedule.cycles == runs["fedsatschedule"].schedule.cycles
    )
    paths = {}
    for policy, result in runs.items():
        paths[policy] = tmp_path / f"metrics_{policy}.csv"
        write_metrics_csv(result, paths[policy])
    same_bytes = (
        paths["fedsat"].read_bytes() == paths["fedsatschedule"].read_bytes()
    )
    report(
        5, same_schedule and same_bytes,
        f"t_l = 1.5 x longest pass ({t_l:.0f} s): schedules equal "
        f"{same_schedule}, metrics byte-identical {same_bytes}",
    )


def test_criterion_6_convergence_ordering(bundled):
    base = with_overrides(bundled, train_time_s=30.0, horizon_s=172800.0)
    ordering_ok, staleness_ok = True, True
    details = []
    for seed in range(1, 6):
        _, table = compare_runs(
            with_overrides(base, seed=seed), ["fedsat", "fedsatschedule"]
        )
        by = {row["policy"]: row for row in table}
        t_fed = by["fedsat"]["time_to_threshold_s"]
        t_sched = by["fedsatschedule"]["time_to_threshold_s"]
        if t_sched is None or (t_fed is not None and t_sched > t_fed):
            ordering_ok = False
        s_fed = by["fedsat"]["mean_time_staleness_s"]
        s_sched = by["fedsatschedule"]["mean_time_staleness_s"]
        if not s_sched < s_fed:
            staleness_ok = False
        details.append(
            f"seed {seed}: {t_sched:.0f}<= "
            f"{'inf' if t_fed is None else f'{t_fed:.0f}'} s, "
            f"staleness {s_sched:.0f}<{s_fed:.0f} s"
        )
    report(
        6, ordering_ok and staleness_ok,
        "threshold times and mean staleness over seeds 1-5 | "
        + "; ".join(details),
    )


def test_criterion_7_single_satellite_equivalence():
    scenario = small_scenario()
    result = run_simulation(scenario)
    uploads = [c for c in result.schedule.cycles[0] if c.ul_pass is not None]
    learner = make_learner(
        scenario.learner_kind, scenario.classes, scenario.feature_dim,
        scenario.hidden,
    )
    train, _ = generate_synthetic_task(
        scenario.classes, scenario.feature_dim, scenario.samples_per_class,
        scenario.seed, spread=scenario.spread,
        test_samples_per_class=scenario.test_samples_per_class,
    )
    rows = partition_non_iid(
        train, [[0]], scenario.label_split()[1], scenario.seed
    )[0]
    w = learner.init_params(
        np.random.default_rng(np.random.SeedSequence([scenario.seed]))
    )
    for cycle in range(len(uploads)):
        seed = np.random.SeedSequence([scenario.seed, 0, cycle])
        w = local_sgd(learner, [w], train, [rows], scenario.compute_profile(), [seed])[0]
    diff = float(np.max(np.abs(result.final_params - w)))
    report(
        7, diff <= 1e-12 and len(uploads) >= 2,
        f"{len(uploads)} uploads vs chained SGD, max |diff| = {diff:.2e}",
    )


def test_criterion_8_gradient_check():
    worst = 0.0
    step = 1e-4
    for trial in range(20):
        rng = np.random.default_rng(trial)
        kind = "logreg" if trial % 2 == 0 else "mlp"
        learner = make_learner(kind, classes=3, feature_dim=4, hidden=5)
        params = rng.standard_normal(learner.param_dim)
        X = rng.standard_normal((8, 4))
        y = rng.integers(0, 3, 8)
        analytic = learner.gradient(params, X, y)
        fd = np.empty_like(analytic)
        for i in range(len(params)):
            up, dn = params.copy(), params.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (softmax_loss(learner, up, X, y)
                     - softmax_loss(learner, dn, X, y)) / (2 * step)
        scale = max(np.max(np.abs(fd)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / scale))
    report(8, worst <= 1e-5, f"20 instances, worst relative gradient error "
                             f"{worst:.2e}")


def test_criterion_9_run_determinism(tmp_path):
    scenario_path = str(bundled_scenario_path())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["run", "--scenario", scenario_path,
                     "--out", str(out)]) == 0
    names = ["contact_plan.csv", "schedule.csv", "metrics.csv", "summary.txt"]
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in names
    )
    report(9, identical, "two identical invocations, all four artifacts "
                         "byte-identical")
