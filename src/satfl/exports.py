"""CSV and summary-text writers for simulation artifacts.

All numeric formatting is fixed so that repeated runs of the same scenario
produce byte-identical files.
"""

from __future__ import annotations

from .engine import SimResult
from .orbital import ContactPlan
from .scheduler import TransmissionSchedule

# Rows end in "\r\n", as in the csv module's default dialect; no field ever
# needs quoting.
_PLAN_ROW = "%d,%d,%.6f,%.6f,%.6f,%.3f\r\n"
_EVAL_ROW = "%.6f,%d,,,,%.6f\r\n"
_UPLOAD_ROW = "%.6f,%d,%d,%d,%.6f,\r\n"


def _f(x, digits=6):
    return "" if x is None else f"{x:.{digits}f}"


def _write(path, header: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + "".join(lines))


def write_contact_plan_csv(plan: ContactPlan, path) -> None:
    _write(path, "satellite_id,pass_index,rise_s,set_s,duration_s,max_distance_m", [
        _PLAN_ROW % (k, n, p.rise_s, p.set_s, p.duration_s, p.max_distance_m)
        for k, passes in enumerate(plan.passes) for n, p in enumerate(passes)
    ])


def write_schedule_csv(schedule: TransmissionSchedule, path) -> None:
    _write(path, "satellite_id,pass_index,decision,dl_time_s,ul_time_s", [
        f"{k},{c.dl_pass},{c.mode.value},{c.dl_start_s:.6f},{_f(c.ul_start_s)}\r\n"
        for k, cycles in enumerate(schedule.cycles) for c in cycles
    ])


def write_metrics_csv(result: SimResult, path) -> None:
    # evaluation rows carry only an accuracy, upload rows only staleness
    _write(path, "sim_time_s,global_epoch,satellite_id,epoch_staleness,"
                 "time_staleness_s,test_accuracy", [
        _EVAL_ROW % (r[0], r[1], r[5]) if r[2] is None else _UPLOAD_ROW % r[:5]
        for r in result.rows
    ])


def run_summary_lines(result: SimResult) -> list[str]:
    s = result.scenario
    midpoint = 0.5 * (result.initial_accuracy + result.final_accuracy)
    t_mid = result.time_to_accuracy(midpoint)
    lines = [
        f"policy = {s.policy}",
        f"seed = {s.seed}",
        f"horizon_s = {_f(s.horizon_s)}",
        f"eval_period_s = {_f(s.eval_period_s)}",
        f"satellites = {s.satellite_count}",
        f"global_epochs = {result.global_epoch}",
        f"initial_accuracy = {_f(result.initial_accuracy)}",
        f"final_accuracy = {_f(result.final_accuracy)}",
        f"midpoint_threshold = {_f(midpoint)}",
        f"time_to_midpoint_s = {_f(t_mid)}",
        f"mean_time_staleness_s = {_f(result.mean_time_staleness_s())}",
        f"mean_epoch_staleness = {_f(result.mean_epoch_staleness())}",
    ]
    return lines


def write_run_summary(lines: list[str], path) -> None:
    """Write the lines of run_summary_lines, one per line."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_comparison_csv(table: list[dict], path) -> None:
    cols = [
        "policy", "threshold_accuracy", "time_to_threshold_s", "final_accuracy",
        "mean_time_staleness_s", "mean_epoch_staleness", "global_epochs",
    ]
    _write(path, ",".join(cols), [
        f"{row['policy']},{_f(row['threshold_accuracy'])},"
        f"{_f(row['time_to_threshold_s'])},{_f(row['final_accuracy'])},"
        f"{_f(row['mean_time_staleness_s'])},{_f(row['mean_epoch_staleness'])},"
        f"{row['global_epochs']}\r\n"
        for row in table
    ])
