"""Deterministic discrete-event loop tying orbits, links, learning and
scheduling into end-to-end federated training runs.

The event loop is strictly sequential: events are processed in
nondecreasing time, ties broken by (kind priority, satellite id, insertion
order), so identical scenarios and seeds yield bitwise-identical logs.
Training consumes simulated time, but the SGD itself runs when its result
is first read: at the update's upload for the asynchronous policies, at
the round's aggregation for the synchronous baseline. That first read
trains, from the model snapshots taken at their downloads, every
downloaded update whose upload is queued, as one stack per dataset size;
the others keep their results until their own uploads arrive. Updates that
are never uploaded or never aggregated are never trained, and the learning
outcome is independent of the configured training duration and of the
stacking.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .federation import (
    ClientState,
    ServerState,
    UpdateMessage,
    fedavg_sync_aggregate,
    fedsat_aggregate,
    record_staleness,
)
from .learning import (
    evaluate_accuracy,
    generate_synthetic_task,
    local_sgd,
    make_learner,
    partition_non_iid,
    wire_bits,
)
from .link import pass_comm_time
from .orbital import (
    ContactPlan,
    compute_contact_plan,
    flatten_constellation,
    max_pass_distances,
)
from .scenario import Scenario
from .scheduler import TransmissionSchedule, extract_schedule


class EventKind(enum.IntEnum):
    """Event kinds; the integer value is the same-time processing priority."""

    UL_COMPLETE = 0
    DL_COMPLETE = 1
    TRAIN_COMPLETE = 2
    EVAL = 3


@dataclass(frozen=True)
class SimEvent:
    time_s: float
    kind: EventKind
    satellite_id: int | None = None
    cycle: int | None = None


@dataclass(frozen=True)
class MetricsRow:
    sim_time_s: float
    global_epoch: int
    satellite_id: int | None
    epoch_staleness: int | None
    time_staleness_s: float | None
    test_accuracy: float | None


@dataclass
class SimResult:
    scenario: Scenario
    plan: ContactPlan
    max_distances_m: list[list[float]]
    schedule: TransmissionSchedule | None
    rows: list[MetricsRow]
    final_params: np.ndarray
    global_epoch: int

    def eval_rows(self) -> list[MetricsRow]:
        return [r for r in self.rows if r.test_accuracy is not None]

    def upload_rows(self) -> list[MetricsRow]:
        return [r for r in self.rows if r.satellite_id is not None]

    @property
    def initial_accuracy(self) -> float:
        return self.eval_rows()[0].test_accuracy

    @property
    def final_accuracy(self) -> float:
        return self.eval_rows()[-1].test_accuracy

    def time_to_accuracy(self, threshold: float) -> float | None:
        for r in self.eval_rows():
            if r.test_accuracy >= threshold:
                return r.sim_time_s
        return None

    def mean_time_staleness_s(self) -> float | None:
        ups = self.upload_rows()
        if not ups:
            return None
        return sum(r.time_staleness_s for r in ups) / len(ups)

    def mean_epoch_staleness(self) -> float | None:
        ups = self.upload_rows()
        if not ups:
            return None
        return sum(r.epoch_staleness for r in ups) / len(ups)


class _Engine:
    """Single-run state: event heap, server/client state, metrics rows."""

    def __init__(self, scenario, plan, learner, datasets, test_set, server,
                 comm_s, train_time_s):
        self.scenario = scenario
        self.plan = plan
        self.learner = learner
        self.datasets = datasets
        self.test_set = test_set
        self.server = server
        self.comm_s = comm_s          # comm_s[k][n]: exchange time on pass n
        self.train_time_s = train_time_s
        self.profile = scenario.compute_profile()
        self.clients = {k: ClientState(k) for k in datasets}
        self.rows: list[MetricsRow] = []
        self.heap: list = []
        self._seq = 0
        # per-cycle in-flight state, keyed by (satellite, cycle): the download
        # snapshot, time and epoch; the cycles whose UL_COMPLETE is queued;
        # and the trained updates not yet read
        self.cycle_start: dict[tuple[int, int], tuple[np.ndarray, float, int]] = {}
        self.uploads: set[tuple[int, int]] = set()
        self.trained: dict[tuple[int, int], np.ndarray] = {}
        # (server epoch, test accuracy) of the last evaluation
        self.last_eval: tuple[int, float] | None = None
        # sync-policy round state: satellite -> cycle uploaded this round
        self.round_updates: dict[int, int] = {}
        self.round_index = 0
        self.transmissions: list[tuple[int, float, float]] = []  # (sat, start, stop)

    def push(self, event: SimEvent) -> bool:
        """Queue an event inside the horizon; return whether it was queued."""
        if event.time_s > self.scenario.horizon_s:
            return False
        sat = event.satellite_id if event.satellite_id is not None else -1
        heapq.heappush(
            self.heap, (event.time_s, int(event.kind), sat, self._seq, event)
        )
        self._seq += 1
        return True

    def push_upload(self, time_s: float, k: int, cycle: int) -> None:
        if self.push(SimEvent(time_s, EventKind.UL_COMPLETE, k, cycle)):
            self.uploads.add((k, cycle))

    def push_evals(self) -> None:
        n = int(math.floor(self.scenario.horizon_s / self.scenario.eval_period_s))
        for i in range(n + 1):
            self.push(SimEvent(i * self.scenario.eval_period_s, EventKind.EVAL))

    def run(self) -> None:
        while self.heap:
            _, _, _, _, event = heapq.heappop(self.heap)
            self.handle_event(event)

    # ------------------------------------------------------------------

    def handle_event(self, event: SimEvent) -> None:
        handler = {
            EventKind.DL_COMPLETE: self._on_dl_complete,
            EventKind.TRAIN_COMPLETE: self._on_train_complete,
            EventKind.UL_COMPLETE: self._on_ul_complete,
            EventKind.EVAL: self._on_eval,
        }[event.kind]
        handler(event)

    def _on_dl_complete(self, event: SimEvent) -> None:
        k = event.satellite_id
        snapshot = self.server.params.copy()
        self.cycle_start[(k, event.cycle)] = (snapshot, event.time_s, self.server.epoch)
        if self.scenario.policy == "fedavg_sync":
            self.push(SimEvent(
                event.time_s + self.train_time_s[k],
                EventKind.TRAIN_COMPLETE, k, event.cycle,
            ))

    def _on_train_complete(self, event: SimEvent) -> None:
        # only the sync baseline schedules this event: its upload is placed
        # once training ends
        self._sync_place_upload(event.satellite_id, event.cycle, event.time_s)

    def _take(self, key: tuple[int, int]):
        """Pop cycle key's trained update and its download state (snapshot,
        time, epoch).

        The first read trains every downloaded cycle whose upload is queued
        and that is not trained yet: their starts are fixed, so one local_sgd
        stack per dataset size gives each the bits it would get alone.
        """
        if key not in self.trained:
            by_size: dict[int, list[tuple[int, int]]] = {}
            for c in self.cycle_start:
                if c in self.uploads and c not in self.trained:
                    by_size.setdefault(self.datasets[c[0]].size, []).append(c)
            for keys in by_size.values():
                rows = local_sgd(
                    self.learner,
                    [self.cycle_start[c][0] for c in keys],
                    [self.datasets[k] for k, _ in keys],
                    self.profile,
                    [np.random.SeedSequence([self.scenario.seed, k, cycle])
                     for k, cycle in keys],
                )
                self.trained.update(zip(keys, rows))
        return self.trained.pop(key), self.cycle_start.pop(key)

    def _on_ul_complete(self, event: SimEvent) -> None:
        k = event.satellite_id
        key = (k, event.cycle)
        client = self.clients[k]
        if self.scenario.policy == "fedavg_sync":
            _, dl_time, dl_epoch = self.cycle_start[key]
            rec_epoch = self.server.epoch - dl_epoch
            self.round_updates[k] = event.cycle
            self.rows.append(MetricsRow(
                sim_time_s=event.time_s,
                global_epoch=self.server.epoch,
                satellite_id=k,
                epoch_staleness=rec_epoch,
                time_staleness_s=event.time_s - dl_time,
                test_accuracy=None,
            ))
            if len(self.round_updates) == len(self.clients):
                updates = {k: self._take((k, c))[0] for k, c in self.round_updates.items()}
                fedavg_sync_aggregate(self.server, updates)
                self.round_updates = {}
                self.round_index += 1
                self._sync_start_round(event.time_s)
            return
        new, (start, dl_time, dl_epoch) = self._take(key)
        prev = client.prev_upload if client.prev_upload is not None else start
        msg = UpdateMessage(
            satellite_id=k,
            prev_params=prev,
            new_params=new,
            download_time_s=dl_time,
            download_epoch=dl_epoch,
        )
        rec = record_staleness(msg, event.time_s, self.server)
        fedsat_aggregate(self.server, msg)
        client.prev_upload = new
        self.rows.append(MetricsRow(
            sim_time_s=event.time_s,
            global_epoch=self.server.epoch,
            satellite_id=k,
            epoch_staleness=rec.epoch_staleness,
            time_staleness_s=rec.time_staleness_s,
            test_accuracy=None,
        ))

    def _on_eval(self, event: SimEvent) -> None:
        # every aggregation increments the epoch, so an unchanged epoch means
        # unchanged parameters and the last accuracy still holds
        epoch = self.server.epoch
        if self.last_eval is None or self.last_eval[0] != epoch:
            acc = evaluate_accuracy(self.learner, self.server.params, self.test_set)
            self.last_eval = (epoch, acc)
        self.rows.append(MetricsRow(
            sim_time_s=event.time_s,
            global_epoch=epoch,
            satellite_id=None,
            epoch_staleness=None,
            time_staleness_s=None,
            test_accuracy=self.last_eval[1],
        ))

    # ---- async policies ----------------------------------------------

    def load_schedule(self, schedule: TransmissionSchedule) -> None:
        for k, cycles in enumerate(schedule.cycles):
            for ci, cyc in enumerate(cycles):
                self.push(SimEvent(cyc.dl_complete_s, EventKind.DL_COMPLETE, k, ci))
                self.transmissions.append((k, cyc.dl_start_s, cyc.dl_complete_s))
                if cyc.ul_complete_s is not None:
                    self.push_upload(cyc.ul_complete_s, k, ci)
                    self.transmissions.append((k, cyc.ul_start_s, cyc.ul_complete_s))

    # ---- synchronous baseline ----------------------------------------

    def start_sync(self) -> None:
        if self.clients:
            self._sync_start_round(0.0)

    def _sync_start_round(self, now_s: float) -> None:
        starts = {}
        for k, passes in enumerate(self.plan.passes):
            nxt = next(
                ((i, p) for i, p in enumerate(passes)
                 if p.rise_s >= now_s and p.rise_s + self.comm_s[k][i] <= p.set_s),
                None,
            )
            if nxt is None:
                return  # some satellite can never download: no further rounds
            starts[k] = nxt
        for k, (i, p) in starts.items():
            dl_complete = p.rise_s + self.comm_s[k][i]
            self.push(SimEvent(dl_complete, EventKind.DL_COMPLETE, k, self.round_index))
            self.transmissions.append((k, p.rise_s, dl_complete))

    def _sync_place_upload(self, k: int, cycle: int, now_s: float) -> None:
        for i, p in enumerate(self.plan.passes[k]):
            if p.set_s <= now_s:
                continue
            ul_start = max(p.rise_s, now_s)
            ul_complete = ul_start + self.comm_s[k][i]
            if ul_complete <= p.set_s:
                self.push_upload(ul_complete, k, cycle)
                self.transmissions.append((k, ul_start, ul_complete))
                return
        # no pass left inside the horizon: the update is never reported


def _altitude_groups(scenario: Scenario) -> list[list[int]]:
    """Satellite ids grouped by orbit altitude, ascending."""
    flat = flatten_constellation(scenario.orbit_specs())
    by_alt: dict[float, list[int]] = {}
    for k, (orbit, _) in enumerate(flat):
        by_alt.setdefault(orbit.altitude_m, []).append(k)
    return [by_alt[a] for a in sorted(by_alt)]


def _check_concurrency(transmissions, cap) -> None:
    events = []
    for _, start, stop in transmissions:
        events.append((start, 1))
        events.append((stop, -1))
    active = 0
    for t, delta in sorted(events):
        active += delta
        if active > cap:
            raise ScenarioError(
                f"more than {cap} concurrent links at t={t:.3f} s "
                "(sim.max_concurrent_links exceeded)"
            )


def run_simulation(scenario: Scenario) -> SimResult:
    """Execute one full scenario and return its metrics log.

    Identical scenarios and seeds produce bitwise-identical results.
    """
    scenario.validate()
    orbits = scenario.orbit_specs()
    gs = scenario.ground_station()
    plan = compute_contact_plan(
        orbits, gs, scenario.horizon_s, scenario.coarse_step_s
    )
    n_sats = len(plan.passes)

    learner = make_learner(
        scenario.learner_kind, scenario.classes, scenario.feature_dim, scenario.hidden
    )
    train, test = generate_synthetic_task(
        scenario.classes,
        scenario.feature_dim,
        scenario.samples_per_class,
        scenario.seed,
        spread=scenario.spread,
        test_samples_per_class=scenario.test_samples_per_class,
    )

    if n_sats > 0:
        groups = _altitude_groups(scenario)
        lpg = scenario.labels_per_group or scenario.classes // len(groups)
        if lpg * len(groups) != scenario.classes:
            raise ScenarioError(
                f"{scenario.classes} labels cannot be divided as "
                f"{lpg} per group across {len(groups)} altitude groups"
            )
        datasets = partition_non_iid(train, groups, lpg, scenario.seed)
        total = sum(d.size for d in datasets.values())
        weights = {k: d.size / total for k, d in datasets.items()}
    else:
        datasets, weights = {}, {}

    init_rng = np.random.default_rng(np.random.SeedSequence([scenario.seed]))
    params0 = learner.init_params(init_rng)
    model_bits = scenario.model_bits or wire_bits(params0)
    budget = scenario.link_budget()

    max_dists = max_pass_distances(plan, orbits, gs)
    comm_s = [[pass_comm_time(budget, model_bits, d) for d in ds] for ds in max_dists]

    if scenario.train_time_s is not None:
        t_l = [scenario.train_time_s] * n_sats
    else:
        profile = scenario.compute_profile()
        from .learning import training_time
        t_l = [
            training_time(profile, 32.0 * datasets[k].size * scenario.feature_dim)
            for k in range(n_sats)
        ]

    server = ServerState(params0.copy(), weights)
    engine = _Engine(
        scenario, plan, learner, datasets, test, server, comm_s, t_l
    )
    engine.push_evals()

    schedule = None
    if scenario.policy in ("fedsat", "fedsatschedule"):
        schedule = extract_schedule(
            plan, scenario.policy, t_l, comm_s, comm_s,
            strict_online_budget=scenario.strict_online_budget,
        )
        engine.load_schedule(schedule)
        if scenario.max_concurrent_links is not None:
            _check_concurrency(engine.transmissions, scenario.max_concurrent_links)
    else:
        engine.start_sync()

    engine.run()
    if scenario.policy == "fedavg_sync" and scenario.max_concurrent_links is not None:
        _check_concurrency(engine.transmissions, scenario.max_concurrent_links)

    return SimResult(
        scenario=scenario,
        plan=plan,
        max_distances_m=max_dists,
        schedule=schedule,
        rows=engine.rows,
        final_params=server.params,
        global_epoch=server.epoch,
    )


def compare_runs(
    scenario: Scenario,
    policies: list[str],
    threshold: float | None = None,
) -> tuple[dict[str, SimResult], list[dict]]:
    """Run the same scenario under several policies and tabulate outcomes.

    All runs share the scenario seed; their contact plans are verified to
    be identical. The accuracy threshold defaults to the midpoint between
    the first policy's initial and final accuracy.
    """
    if len(policies) < 2:
        raise ScenarioError("compare needs at least two policies")
    from .scenario import with_overrides

    results: dict[str, SimResult] = {}
    for policy in policies:
        results[policy] = run_simulation(with_overrides(scenario, policy=policy))

    reference = results[policies[0]]
    for policy in policies[1:]:
        if results[policy].plan.passes != reference.plan.passes:
            raise ScenarioError("contact plans differ between compared runs")

    if threshold is None:
        threshold = 0.5 * (reference.initial_accuracy + reference.final_accuracy)

    table = []
    for policy in policies:
        r = results[policy]
        table.append({
            "policy": policy,
            "threshold_accuracy": threshold,
            "time_to_threshold_s": r.time_to_accuracy(threshold),
            "final_accuracy": r.final_accuracy,
            "mean_time_staleness_s": r.mean_time_staleness_s(),
            "mean_epoch_staleness": r.mean_epoch_staleness(),
            "global_epochs": r.global_epoch,
        })
    return results, table
