"""Command-line front end: plan passes, run experiments, compare policies.

Exit codes: 0 success, 2 scenario error or infeasible schedule, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import exports
from .engine import compare_runs, run_simulation
from .errors import InfeasibleScheduleError, ScenarioError
from .orbital import compute_contact_plan, flatten_constellation, max_pass_distance
from .scenario import POLICIES, load_scenario, with_overrides


def _add_common(parser):
    parser.add_argument("--scenario", required=True, metavar="PATH",
                        help="scenario YAML file")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory (created if absent)")
    parser.add_argument("--seed", type=int, default=None, metavar="N")
    parser.add_argument("--tl", type=float, default=None, metavar="SECONDS",
                        help="override the per-update training time")
    parser.add_argument("--horizon", type=float, default=None, metavar="HOURS",
                        help="override the simulation horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satfl",
        description="Federated-learning scheduling simulator for LEO "
                    "constellations served by one ground station.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="compute and export the contact plan")
    _add_common(p_plan)

    p_run = sub.add_parser("run", help="run one scheduling policy end to end")
    _add_common(p_run)
    p_run.add_argument("--policy", choices=POLICIES, default=None)

    p_cmp = sub.add_parser("compare", help="run several policies on one scenario")
    _add_common(p_cmp)
    p_cmp.add_argument("--policies", default="fedsat,fedsatschedule",
                       help="comma-separated policy list")
    return parser


def _load(args, policy=None):
    scenario = load_scenario(args.scenario)
    horizon_s = args.horizon * 3600.0 if args.horizon is not None else None
    return with_overrides(
        scenario, seed=args.seed, policy=policy,
        train_time_s=args.tl, horizon_s=horizon_s,
    )


def cmd_plan(args) -> int:
    scenario = _load(args)
    out = Path(args.out)
    orbits = scenario.orbit_specs()
    gs = scenario.ground_station()
    plan = compute_contact_plan(
        orbits, gs, scenario.horizon_s, scenario.coarse_step_s
    )
    flat = flatten_constellation(orbits)
    max_dists = [
        [max_pass_distance(p, flat[k][0], flat[k][1], gs) for p in plan.passes[k]]
        for k in range(len(flat))
    ]
    out.mkdir(parents=True, exist_ok=True)
    exports.write_contact_plan_csv(plan, max_dists, out / "contact_plan.csv")
    print(f"contact plan written to {out / 'contact_plan.csv'}")
    for k, passes in enumerate(plan.passes):
        if passes:
            mean_dur = sum(p.duration_s for p in passes) / len(passes)
            print(f"satellite {k}: {len(passes)} passes, "
                  f"mean duration {mean_dur:.1f} s")
        else:
            print(f"satellite {k}: 0 passes")
    return 0


def cmd_run(args) -> int:
    scenario = _load(args, policy=args.policy)
    result = run_simulation(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    exports.write_contact_plan_csv(
        result.plan, result.max_distances_m, out / "contact_plan.csv"
    )
    if result.schedule is not None:
        exports.write_schedule_csv(result.schedule, out / "schedule.csv")
    exports.write_metrics_csv(result, out / "metrics.csv")
    exports.write_run_summary(result, out / "summary.txt")
    for line in exports.run_summary_lines(result):
        print(line)
    return 0


def cmd_compare(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    scenario = _load(args)
    results, table = compare_runs(scenario, policies)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for policy, result in results.items():
        exports.write_metrics_csv(result, out / f"metrics_{policy}.csv")
    exports.write_comparison_csv(table, out / "comparison.csv")
    for row in table:
        t = row["time_to_threshold_s"]
        reached = f"{t:.0f} s" if t is not None else "not reached"
        stale = row["mean_time_staleness_s"]
        stale_txt = f"{stale:.0f} s" if stale is not None else "n/a"
        print(f"{row['policy']}: accuracy {row['threshold_accuracy']:.3f} "
              f"reached at {reached}, mean time staleness {stale_txt}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"plan": cmd_plan, "run": cmd_run, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except (ScenarioError, InfeasibleScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
