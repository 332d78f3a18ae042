"""Download/upload placement for every policy, before any training.

Every exchange goes in the first pass, from a given one on, that holds it
when it starts at max(rise, the instant it is ready) (`_first_fit`).

When an asynchronous satellite is free during pass p, it decides where its
next update is trained. Online, it downloads at the rise of pass p + 1,
then trains and uploads inside that pass. Offline, it downloads in p (when
the download misses p, it decides again at p + 1), trains in the off-time
and uploads in the first later pass that fits. `fedsat` always trains
offline. `fedsatschedule` trains online exactly when the online cycle fits
pass p + 1, that is when rise + DL + training + UL <= set there, and
offline otherwise (also when there is no pass p + 1). `fedavg_sync` runs
lockstep rounds. No policy's timing depends on a learned value, so
`extract_schedule` serves all three. One link budget prices both directions,
so each pass has one exchange time, taken by its download and its upload.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import ScenarioError
from .orbital import ContactPlan


class Mode(enum.Enum):
    TRAIN_OFFLINE = "TRAIN_OFFLINE"
    TRAIN_ONLINE = "TRAIN_ONLINE"


@dataclass(frozen=True)
class ScheduledCycle:
    """One download -> train -> upload cycle of a satellite.

    Upload fields are None when the horizon ends before the update can be
    transmitted (the trailing update is dropped from the metrics).
    """

    mode: Mode
    dl_pass: int
    dl_start_s: float
    dl_complete_s: float
    ul_pass: int | None
    ul_start_s: float | None
    ul_complete_s: float | None


@dataclass
class TransmissionSchedule:
    """Concrete UL/DL instants per satellite: cycles[k] is satellite k's."""

    cycles: list[list[ScheduledCycle]] = field(default_factory=list)


def _first_fit(passes, comm, first, t):
    """First pass q >= first where max(rise_q, t) + comm[q] <= set_q, as
    (q, start, end); (None, None, None) when no pass fits."""
    for q in range(first, len(passes)):
        start = max(passes[q].rise_s, t)
        if start + comm[q] <= passes[q].set_s:
            return q, start, start + comm[q]
    return None, None, None


def _cycle(mode, passes, comm, download, train_time_s, first_ul):
    """The cycle that trains after a placed download (pass, start, end) and
    uploads in the first pass from first_ul on that fits."""
    return ScheduledCycle(mode, *download,
                          *_first_fit(passes, comm, first_ul, download[2] + train_time_s))


def extract_schedule(
    plan: ContactPlan,
    policy: str,
    train_time_s: list[float],
    comm_s: list[list[float]],
) -> TransmissionSchedule:
    """Concrete DL/UL instants of every satellite under policy.

    comm_s[k][n] is the exchange time of satellite k's n-th pass, computed
    from that pass's longest distance; the download and the upload both
    take it. policy is "fedsat", "fedsatschedule" or "fedavg_sync".
    """
    if policy == "fedavg_sync":
        return _sync_schedule(plan, train_time_s, comm_s)
    if policy not in ("fedsat", "fedsatschedule"):
        raise ValueError(f"unknown policy: {policy!r}")
    schedule = TransmissionSchedule()
    for k, passes in enumerate(plan.passes):
        comm, t_l = comm_s[k], train_time_s[k]
        cycles: list[ScheduledCycle] = []
        p, free = 0, 0.0
        while p < len(passes):
            q, c = p + 1, None
            if policy == "fedsatschedule" and q < len(passes):
                rise = passes[q].rise_s
                c = _cycle(Mode.TRAIN_ONLINE, passes, comm, (q, rise, rise + comm[q]), t_l, q)
            if c is None or c.ul_pass != q:  # offline: no online cycle fits pass q
                download = _first_fit(passes, comm, p, free)
                if download[0] != p:
                    # the download misses this pass; decide again at the next
                    p += 1
                    continue
                c = _cycle(Mode.TRAIN_OFFLINE, passes, comm, download, t_l, p + 1)
            cycles.append(c)
            if c.ul_pass is None:
                break
            p, free = c.ul_pass, c.ul_complete_s
        schedule.cycles.append(cycles)
    return schedule


def _sync_schedule(plan, train_time_s, comm_s):
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
        downloads = []
        for k, passes in enumerate(plan.passes):
            # from a pass rising at or after start, max() keeps the rise
            first = next((i for i, p in enumerate(passes) if p.rise_s >= start),
                         len(passes))
            download = _first_fit(passes, comm_s[k], first, start)
            if download[0] is None:
                return schedule
            downloads.append(download)
        for k, download in enumerate(downloads):
            schedule.cycles[k].append(_cycle(Mode.TRAIN_OFFLINE, plan.passes[k], comm_s[k],
                                             download, train_time_s[k], download[0]))
        ends = [cycles[-1].ul_complete_s for cycles in schedule.cycles]
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
