"""Deterministic replay of one federated run over a precomputed timeline.

A Scenario is checked when it is built, so a run takes it as given. A run
is a preparation, which does the policy-independent work once (`prepare`:
the priced plan and the learning task), and a replay of one policy on it
(`replay`), so policies compared on one scenario share one preparation. No
policy's timing depends on a learned value, so every download, upload and
evaluation instant is known before the first SGD step: `extract_schedule`
places every policy's cycles from one exchange time per pass, which the
pass's download and upload both take, and the scenario's one training
time, which every update takes. The link cap is checked on that
schedule, before any training. Its upload (UL) completions, the
download (DL) completions of the cycles that upload, and the evaluation
(EVAL) grid are then merged into one sorted list of plain (time, kind,
satellite, cycle) tuples and replayed in one loop. Ties at equal times go
UL before DL before EVAL, then by satellite, with evaluations as
satellite -1, so identical scenarios and seeds yield bitwise-identical
logs.

A DL snapshots the global model as the array itself, which nothing writes
into. Training consumes simulated time, but the SGD itself runs when its
result is first read: at the update's upload for the asynchronous
policies, at the round's aggregation for the synchronous baseline. That
first read trains, from the snapshots taken at their downloads, every
downloaded update that is not trained yet, as one stack per shard length;
the others keep their results until their own uploads arrive. Updates
that are never uploaded or never aggregated are never trained, and the
learning outcome is independent of the configured training duration and
of the stacking. An EVAL evaluates the global model, or reuses the last
accuracy while the global epoch is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ScenarioError
from .federation import fedavg_sync_aggregate, fedsat_aggregate
from .learning import (
    WIRE_BITS_PER_PARAM,
    LocalDataset,
    LogisticRegressionLearner,
    MLPLearner,
    evaluate_accuracy,
    generate_synthetic_task,
    local_sgd,
    partition_non_iid,
)
from .link import pass_comm_time
from .orbital import ContactPlan, compute_contact_plan
from .scenario import POLICIES, Scenario
from .scheduler import TransmissionSchedule, check_link_cap, extract_schedule

# timeline event kinds, valued in their same-time replay order
UL, DL, EVAL = 0, 1, 2


class MetricsRow(NamedTuple):
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
    schedule: TransmissionSchedule   # built for every policy
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

    def _upload_mean(self, field: str) -> float | None:
        ups = self.upload_rows()
        return sum(getattr(r, field) for r in ups) / len(ups) if ups else None

    def mean_time_staleness_s(self) -> float | None:
        return self._upload_mean("time_staleness_s")

    def mean_epoch_staleness(self) -> float | None:
        return self._upload_mean("epoch_staleness")


def _timeline(
    schedule: TransmissionSchedule, horizon_s: float, eval_period_s: float
) -> list[tuple[float, int, int, int]]:
    """Every DL, UL and EVAL instant of a run, in replay order.

    A cycle whose upload is dropped gets no DL either: its snapshot would
    never be read. Schedule instants lie inside passes, hence inside the
    horizon; the evaluation grid is cut at the horizon.
    """
    events = []
    for k, cycles in enumerate(schedule.cycles):
        for c, cyc in enumerate(cycles):
            if cyc.ul_complete_s is not None:
                events += ((cyc.dl_complete_s, DL, k, c), (cyc.ul_complete_s, UL, k, c))
    # the last i with i * eval_period_s <= horizon_s, whichever way the quotient rounds
    n = math.floor(horizon_s / eval_period_s)
    n += (n + 1) * eval_period_s <= horizon_s
    n -= n * eval_period_s > horizon_s
    events += ((i * eval_period_s, EVAL, -1, i) for i in range(n + 1))
    events.sort()
    return events


def _replay(prep, policy, params, timeline):
    """Replay a timeline under policy from the global model params; return
    the metrics rows, the final global model and its epoch (the
    aggregation count)."""
    learner, shards, weights = prep.learner, prep.shards, prep.weights
    profile = prep.scenario.compute_profile()
    sync = policy == "fedavg_sync"
    n_sats = len(shards)
    # per-cycle state keyed by (satellite, cycle): the download's snapshot,
    # time and epoch; the downloaded cycles not yet trained, in download
    # order; and the trained updates not yet read
    started: dict[tuple[int, int], tuple[np.ndarray, float, int]] = {}
    pending: list[tuple[int, int]] = []
    trained: dict[tuple[int, int], np.ndarray] = {}
    prev_upload: dict[int, np.ndarray] = {}
    rows: list[MetricsRow] = []
    epoch, eval_epoch, accuracy = 0, None, None
    arrived = 0  # uploads of the current sync round

    def take(key):
        """Pop a cycle's trained update and its download state.

        An untrained cycle is trained together with every pending one (only
        cycles with an upload are downloaded): their starts are fixed, so
        one local_sgd stack per shard length gives each the bits it would
        get alone. Each update is stored as its own array, so that a kept
        update (prev_upload) does not pin its whole stack: a lone update's
        (1, P) result is its own copy, and a stack's rows are copied."""
        if key not in trained:
            by_length: dict[int, list[tuple[int, int]]] = {}
            for c in pending:
                by_length.setdefault(len(shards[c[0]]), []).append(c)
            pending.clear()
            for keys in by_length.values():
                updates = local_sgd(
                    learner,
                    [started[c][0] for c in keys],
                    prep.train,
                    [shards[k] for k, _ in keys],
                    profile,
                    [np.random.SeedSequence([prep.scenario.seed, k, c]) for k, c in keys],
                )
                trained.update(zip(keys, updates if len(keys) == 1 else map(np.copy, updates)))
        return trained.pop(key), started.pop(key)

    for t, kind, k, c in timeline:
        if kind == DL:
            started[(k, c)] = (params, t, epoch)
            pending.append((k, c))
        elif kind == EVAL:
            if eval_epoch != epoch:
                eval_epoch = epoch
                accuracy = evaluate_accuracy(learner, params, prep.test_set)
            rows.append(MetricsRow(t, eval_epoch, None, None, None, accuracy))
        else:
            # the age of the model the update was trained from; an
            # asynchronous upload is logged with the epoch its aggregation makes
            _, dl_time, dl_epoch = started[(k, c)]
            rows.append(MetricsRow(t, epoch + (not sync), k,
                                   epoch - dl_epoch, t - dl_time, None))
            if sync:
                arrived += 1
                if arrived < n_sats:
                    continue
                arrived = 0  # round c is complete
                params = fedavg_sync_aggregate(
                    params, weights, {j: take((j, c))[0] for j in range(n_sats)}
                )
            else:
                new, (start, _, _) = take((k, c))
                params = fedsat_aggregate(params, weights[k], prev_upload.get(k, start), new)
                prev_upload[k] = new
            # every aggregation increments the epoch, so an unchanged epoch
            # means unchanged parameters and an EVAL reuses the last accuracy
            epoch += 1
    return rows, params, epoch


def plan_and_price(scenario: Scenario) -> tuple[ContactPlan, list[list[float]]]:
    """Stages 1-2 of a run: the contact plan, and each pass's model
    exchange time at its longest distance.

    The model is scenario.model_bits long, else WIRE_BITS_PER_PARAM bits per
    parameter of the scenario's learner. A link that gives a pass no
    finite, positive rate raises a ScenarioError; with no passes, nothing
    is priced and no link is refused.
    """
    gs = scenario.ground_station()
    plan = compute_contact_plan(scenario.orbit_specs(), gs, scenario.horizon_s)
    model_bits = scenario.model_bits or WIRE_BITS_PER_PARAM * scenario.learner().param_dim
    budget = scenario.link_budget()
    comm_s = [[pass_comm_time(budget, model_bits, p.max_distance_m) for p in ps]
              for ps in plan.passes]
    return plan, comm_s


@dataclass(frozen=True)
class Prepared:
    """What every policy's replay of one scenario reads: the priced plan
    and the learning task, one training set and each satellite's shard of
    its rows. Shards and weights keep altitude-group order, the order
    fedavg_sync sums in."""

    scenario: Scenario
    plan: ContactPlan
    comm_s: list[list[float]]
    learner: LogisticRegressionLearner | MLPLearner
    test_set: LocalDataset
    train: LocalDataset
    shards: dict[int, np.ndarray]
    weights: dict[int, float]


def prepare(scenario: Scenario) -> Prepared:
    """The policy-independent stages of a run: plan, pricing, the synthetic
    task and its partition, and the aggregation weights."""
    plan, comm_s = plan_and_price(scenario)
    train, test = generate_synthetic_task(
        scenario.classes,
        scenario.feature_dim,
        scenario.samples_per_class,
        scenario.seed,
        spread=scenario.spread,
        test_samples_per_class=scenario.test_samples_per_class,
    )

    if plan.passes:
        groups, lpg = scenario.label_split()
        shards = partition_non_iid(train, groups, lpg, scenario.seed)
        total = sum(map(len, shards.values()))
        weights = {k: len(rows) / total for k, rows in shards.items()}
    else:
        shards, weights = {}, {}
    return Prepared(scenario, plan, comm_s, scenario.learner(), test, train, shards, weights)


def replay(prep: Prepared, policy: str) -> SimResult:
    """Schedule and replay a prepared scenario under policy.

    Identical scenarios, seeds and policies produce bitwise-identical
    results, whichever other policies replay the same preparation.
    """
    scenario = replace(prep.scenario, policy=policy)
    schedule = extract_schedule(prep.plan, policy, scenario.train_time_s, prep.comm_s)
    if scenario.max_concurrent_links is not None:
        check_link_cap(schedule, scenario.max_concurrent_links)
    init_rng = np.random.default_rng(np.random.SeedSequence([scenario.seed]))
    rows, params, epoch = _replay(
        prep, policy, prep.learner.init_params(init_rng),
        _timeline(schedule, scenario.horizon_s, scenario.eval_period_s),
    )
    return SimResult(scenario, prep.plan, schedule, rows, params, epoch)


def run_simulation(scenario: Scenario) -> SimResult:
    """Execute one full scenario and return its metrics log."""
    return replay(prepare(scenario), scenario.policy)


def compare_runs(
    scenario: Scenario,
    policies: list[str],
) -> tuple[dict[str, SimResult], list[dict]]:
    """Run the same scenario under several policies and tabulate outcomes.

    Every policy is checked before any work. The policies replay one
    preparation, hence one contact plan. The accuracy threshold is the
    midpoint between the first policy's initial and final accuracy.
    """
    if len(policies) < 2:
        raise ScenarioError("compare needs at least two policies")
    for i, policy in enumerate(policies):
        if policy not in POLICIES:
            raise ScenarioError(f"policy {policy!r} must be one of {POLICIES}")
        if policy in policies[:i]:
            raise ScenarioError(f"policy {policy!r} is listed twice")
    prep = prepare(scenario)
    results = {policy: replay(prep, policy) for policy in policies}
    reference = results[policies[0]]
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
