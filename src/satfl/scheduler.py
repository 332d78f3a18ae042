"""Per-pass download/upload placement for every policy.

Both asynchronous policies share the same cycle structure: during a pass
the satellite uploads its pending update, decides where the next update
will be trained, and either downloads immediately (training in the coming
off-time) or defers the download to the next pass (training inside it).
The baseline policy always trains offline; the scheduling policy defers
whenever the next pass is long enough to hold the whole update. The
synchronous baseline runs lockstep rounds instead (`build_sync_schedule`).
No policy's timing depends on a learned value, so each schedule is complete
before the first SGD step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import InfeasibleScheduleError, ScenarioError
from .link import LinkBudget, pass_comm_time
from .orbital import ContactPlan, Pass


class Mode(enum.Enum):
    TRAIN_OFFLINE = "TRAIN_OFFLINE"
    TRAIN_ONLINE = "TRAIN_ONLINE"


@dataclass(frozen=True)
class PassDecision:
    pass_index: int
    mode: Mode


@dataclass(frozen=True)
class ScheduledCycle:
    """One download -> train -> upload cycle of a satellite.

    Upload fields are None when the horizon ends before the update can be
    transmitted (the trailing update is dropped from the metrics).
    """

    satellite_id: int
    mode: Mode
    decision_pass: int
    dl_pass: int
    dl_start_s: float
    dl_complete_s: float
    train_complete_s: float
    ul_pass: int | None
    ul_start_s: float | None
    ul_complete_s: float | None


@dataclass
class TransmissionSchedule:
    """Concrete UL/DL instants per satellite, one cycle list each."""

    cycles: list[list[ScheduledCycle]] = field(default_factory=list)


def fedsatschedule_decide(
    plan: ContactPlan,
    k: int,
    pass_index: int,
    train_time_s: float,
    online_budget_s: float | None = None,
) -> PassDecision:
    """Decide, during a pass, where the next update is trained.

    Offline iff the next pass is strictly shorter than the training time
    (a tie goes online); the comparison uses the raw next-pass duration
    unless a stricter online budget is supplied. With no next pass inside
    the horizon, offline is the only feasible option.
    """
    passes = plan.passes[k]
    if pass_index + 1 >= len(passes):
        return PassDecision(pass_index, Mode.TRAIN_OFFLINE)
    budget = (
        online_budget_s
        if online_budget_s is not None
        else passes[pass_index + 1].duration_s
    )
    mode = Mode.TRAIN_OFFLINE if budget < train_time_s else Mode.TRAIN_ONLINE
    return PassDecision(pass_index, mode)


def fedsat_decide(plan: ContactPlan, k: int, pass_index: int) -> PassDecision:
    """Baseline policy: always download now and train in the off-time."""
    return PassDecision(pass_index, Mode.TRAIN_OFFLINE)


def effective_online_budget(
    pass_: Pass,
    max_distance_m: float,
    budget: LinkBudget,
    model_bits: float,
    ul_budget: LinkBudget | None = None,
) -> float:
    """Pass duration minus the DL and UL exchange times at worst range.

    Negative means the pass cannot host a full in-pass cycle even before
    accounting for training.
    """
    dl = pass_comm_time(budget, model_bits, max_distance_m)
    ul = pass_comm_time(ul_budget or budget, model_bits, max_distance_m)
    return pass_.duration_s - dl - ul


def extract_schedule(
    plan: ContactPlan,
    policy: str,
    train_time_s: list[float],
    dl_comm_s: list[list[float]],
    ul_comm_s: list[list[float]],
    strict_online_budget: bool = True,
) -> TransmissionSchedule:
    """Turn per-pass decisions into concrete DL/UL instants.

    dl_comm_s[k][n] / ul_comm_s[k][n] are the exchange times for satellite
    k's n-th pass, computed from that pass's longest distance. policy is
    "fedsat" or "fedsatschedule".
    """
    if policy not in ("fedsat", "fedsatschedule"):
        raise ValueError(f"unknown async policy: {policy!r}")
    schedule = TransmissionSchedule()
    for k, passes in enumerate(plan.passes):
        cycles: list[ScheduledCycle] = []
        t_l = train_time_s[k]
        p = 0
        free_time = passes[0].rise_s if passes else 0.0
        while p < len(passes):
            if policy == "fedsat":
                mode = Mode.TRAIN_OFFLINE
            else:
                online_budget = None
                if strict_online_budget and p + 1 < len(passes):
                    online_budget = (
                        passes[p + 1].duration_s
                        - dl_comm_s[k][p + 1]
                        - ul_comm_s[k][p + 1]
                    )
                mode = fedsatschedule_decide(plan, k, p, t_l, online_budget).mode

            if mode is Mode.TRAIN_OFFLINE:
                dl_start = max(passes[p].rise_s, free_time)
                dl_complete = dl_start + dl_comm_s[k][p]
                if dl_complete > passes[p].set_s:
                    # exchange no longer fits in this pass; idle until the next
                    p += 1
                    if p < len(passes):
                        free_time = passes[p].rise_s
                    continue
                train_complete = dl_complete + t_l
                q, ul_start, ul_complete = _place_upload(
                    passes, ul_comm_s[k], p + 1, train_complete
                )
                cycles.append(ScheduledCycle(
                    satellite_id=k, mode=mode, decision_pass=p,
                    dl_pass=p, dl_start_s=dl_start, dl_complete_s=dl_complete,
                    train_complete_s=train_complete,
                    ul_pass=q, ul_start_s=ul_start, ul_complete_s=ul_complete,
                ))
                if q is None:
                    break
                p = q
                free_time = ul_complete
            else:
                q = p + 1
                dl_start = passes[q].rise_s
                dl_complete = dl_start + dl_comm_s[k][q]
                train_complete = dl_complete + t_l
                ul_start = train_complete
                ul_complete = ul_start + ul_comm_s[k][q]
                if ul_complete > passes[q].set_s:
                    raise InfeasibleScheduleError(
                        k, q, ul_complete - passes[q].set_s
                    )
                cycles.append(ScheduledCycle(
                    satellite_id=k, mode=mode, decision_pass=p,
                    dl_pass=q, dl_start_s=dl_start, dl_complete_s=dl_complete,
                    train_complete_s=train_complete,
                    ul_pass=q, ul_start_s=ul_start, ul_complete_s=ul_complete,
                ))
                p = q
                free_time = ul_complete
        schedule.cycles.append(cycles)
    return schedule


def _place_upload(passes, ul_comm, first_pass, train_complete):
    """First pass at or after first_pass that can hold the upload."""
    q = first_pass
    while q < len(passes):
        ul_start = max(passes[q].rise_s, train_complete)
        ul_complete = ul_start + ul_comm[q]
        if ul_complete <= passes[q].set_s:
            return q, ul_start, ul_complete
        q += 1
    return None, None, None


def build_sync_schedule(
    plan: ContactPlan,
    train_time_s: list[float],
    dl_comm_s: list[list[float]],
    ul_comm_s: list[list[float]],
) -> TransmissionSchedule:
    """Lockstep rounds of the synchronous baseline; cycle r is round r.

    Round 0 starts at t=0 and round r when the last upload of round r-1
    lands. In each round every satellite downloads at the rise of its first
    pass from then on that fits the exchange, trains, and uploads in the
    first pass that fits after training. The schedule ends before the first
    round in which some satellite cannot download, or after the first round
    in which some upload finds no pass (those cycles keep no upload fields).
    Passes lie inside the horizon, so every placed instant does too.
    """
    schedule = TransmissionSchedule([[] for _ in plan.passes])
    start = 0.0
    while plan.passes:
        dl_passes = []
        for k, passes in enumerate(plan.passes):
            i = next((i for i, p in enumerate(passes)
                      if p.rise_s >= start and p.rise_s + dl_comm_s[k][i] <= p.set_s),
                     None)
            if i is None:
                return schedule
            dl_passes.append(i)
        ends = []
        for k, i in enumerate(dl_passes):
            dl_start = plan.passes[k][i].rise_s
            dl_complete = dl_start + dl_comm_s[k][i]
            train_complete = dl_complete + train_time_s[k]
            q, ul_start, ul_complete = _place_upload(
                plan.passes[k], ul_comm_s[k], i, train_complete
            )
            schedule.cycles[k].append(ScheduledCycle(
                satellite_id=k, mode=Mode.TRAIN_OFFLINE, decision_pass=i,
                dl_pass=i, dl_start_s=dl_start, dl_complete_s=dl_complete,
                train_complete_s=train_complete,
                ul_pass=q, ul_start_s=ul_start, ul_complete_s=ul_complete,
            ))
            ends.append(ul_complete)
        if None in ends:
            return schedule
        start = max(ends)
    return schedule


def check_link_cap(schedule: TransmissionSchedule, cap: int) -> None:
    """Refuse a schedule that ever holds more than cap exchanges at once.

    An exchange ending at the instant another starts does not overlap it.
    """
    edges = []
    for cycles in schedule.cycles:
        for c in cycles:
            edges += ((c.dl_start_s, 1), (c.dl_complete_s, -1))
            if c.ul_complete_s is not None:
                edges += ((c.ul_start_s, 1), (c.ul_complete_s, -1))
    active = 0
    for t, delta in sorted(edges):
        active += delta
        if active > cap:
            raise ScenarioError(
                f"more than {cap} concurrent links at t={t:.3f} s "
                "(sim.max_concurrent_links exceeded)"
            )
