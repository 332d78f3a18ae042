"""Properties of whole runs over random small constellations.

Every policy runs on the same drawn constellation. A run may be refused
when the schedule needs more concurrent links than sim.max_concurrent_links
allows; that refusal is an accepted outcome, asserted by its message, and
must come before any training.
Every accepted run is also rebuilt from its schedule by a reference replay
that trains each update alone, and must match it bitwise. Every draw's
schedule, refused or not, must equal the one a reference scheduler finds by
walking each satellite's passes in turn.
"""

import bisect
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from satfl import engine
from satfl.engine import MetricsRow, extract_schedule, plan_and_price, run_simulation
from satfl.errors import ScenarioError
from satfl.federation import fedavg_sync_aggregate, fedsat_aggregate
from satfl.learning import (
    evaluate_accuracy,
    generate_synthetic_task,
    local_sgd,
    partition_non_iid,
)
from satfl.orbital import ContactPlan, Pass
from satfl.scenario import OrbitConfig, Scenario
from satfl.scheduler import Mode, ScheduledCycle, TransmissionSchedule

POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
CAP = "(sim.max_concurrent_links exceeded)"

orbits = st.lists(
    st.builds(
        OrbitConfig,
        altitude_m=st.sampled_from([500e3, 1200e3, 2000e3]),
        inclination_deg=st.floats(45.0, 100.0),
        raan_deg=st.floats(0.0, 360.0),
        initial_arg_latitude_deg=st.floats(0.0, 360.0),
        satellite_count=st.integers(1, 2),
    ),
    min_size=1,
    max_size=3,
)


def scenario(orbit_list, policy, **draws):
    groups = len({o.altitude_m for o in orbit_list})
    return Scenario(
        orbits=orbit_list,
        gs_latitude_deg=draws["latitude"],
        gs_longitude_deg=8.8,
        gs_min_elevation_deg=10.0,
        power_dbm=40.0,
        gain_sat_dbi=6.98,
        gain_gs_dbi=6.98,
        bandwidth_hz=20e6,
        noise_temp_k=290.0,
        carrier_hz=2.4e9,
        classes=2 * groups,
        feature_dim=3,
        samples_per_class=12,
        test_samples_per_class=5,
        train_time_s=draws["train_time_s"],
        policy=policy,
        horizon_s=draws["horizon_s"],
        eval_period_s=1800.0,
        seed=draws["seed"],
        model_bits=draws["model_bits"],
        max_concurrent_links=draws["cap"],
    )


def peak_links(schedule):
    """Most exchanges open at once; an exchange is open on [start, stop)."""
    spans = [
        span for cycles in schedule.cycles for c in cycles
        for span in ((c.dl_start_s, c.dl_complete_s), (c.ul_start_s, c.ul_complete_s))
        if span[0] is not None
    ]
    return max((sum(a <= t < b for a, b in spans) for t, _ in spans), default=0)


@settings(max_examples=100, deadline=None)
@given(
    orbit_list=orbits,
    twin=st.booleans(),
    latitude=st.floats(-60.0, 60.0),
    horizon_s=st.sampled_from([21600.0, 43200.0]),
    train_time_s=st.sampled_from([30.0, 300.0, 4000.0]),
    model_bits=st.sampled_from([None, 200_000_000]),
    cap=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 3),
)
def test_run_properties(orbit_list, twin, **draws):
    if twin:
        # a satellite on the same orbit as the first shares all its passes
        orbit_list = orbit_list + orbit_list[:1]
    plan, comm = plan_and_price(scenario(orbit_list, "fedsat", **draws))
    train_time_s = [draws["train_time_s"]] * len(plan.passes)
    for policy in POLICIES:
        schedule = reference_schedule(plan, policy, train_time_s, comm)
        assert extract_schedule(plan, policy, train_time_s, comm) == schedule
        trained = []

        def counted(learner, starts, *args, _sgd=engine.local_sgd):
            trained.append(len(starts))
            return _sgd(learner, starts, *args)

        with mock.patch.object(engine, "local_sgd", counted):
            try:
                r = run_simulation(scenario(orbit_list, policy, **draws))
            except ScenarioError as exc:
                assert CAP in str(exc), str(exc)
                assert draws["cap"] is not None
                assert trained == []
                event(f"{policy}: refused, cap")
                continue
        event(f"{policy}: ran, {'no upload' if not r.global_epoch else 'trained'}")
        assert r.schedule == schedule
        check_run(r, policy, draws["cap"])
        rows, final_params = reference_replay(r)
        assert r.rows == rows
        assert np.array_equal(r.final_params, final_params)


@st.composite
def tight_plans(draw):
    """A plan, its exchange times and one training time, where many passes
    hold an online cycle or one exchange exactly, or overrun it by 1 ns."""
    t_l = draw(st.sampled_from([1.0, 30.0, 431.1807800172501]))
    plan, comm = ContactPlan(), []
    for _ in range(draw(st.integers(1, 3))):
        passes, times, t = [], [], 0.0
        for _ in range(draw(st.integers(0, 8))):
            rise = t + draw(st.sampled_from([1.0, 100.0, 1000.0]))
            c = draw(st.sampled_from([0.0, 9.565430310897586, 50.0]))
            set_s = draw(st.sampled_from([
                rise + c + t_l + c, rise + c, rise + draw(st.floats(0.0, 3000.0)),
            ])) + draw(st.sampled_from([0.0, -1e-9, 1e-9]))
            passes.append(Pass(rise, max(set_s, rise), 0.0))
            times.append(c)
            t = passes[-1].set_s
        plan.passes.append(passes)
        comm.append(times)
    return plan, comm, [t_l] * len(plan.passes)


@settings(max_examples=300, deadline=None)
@given(case=tight_plans(), policy=st.sampled_from(POLICIES))
def test_schedule_matches_reference_at_exact_fits(case, policy):
    plan, comm, train_time_s = case
    assert extract_schedule(plan, policy, train_time_s, comm) == reference_schedule(
        plan, policy, train_time_s, comm)


def fit(p, comm, ready):
    """(start, end) of an exchange of comm seconds, ready at `ready`, in pass
    p: it starts at max(rise, ready) and must end by the set; None when it
    does not."""
    start = max(p.rise_s, ready)
    return (start, start + comm) if start + comm <= p.set_s else None


def reference_schedule(plan, policy, train_time_s, comm_s):
    """The cycles of every satellite under policy, found by walking its
    passes one at a time and applying the rules as the scheduler.py
    docstrings state them."""
    if policy == "fedavg_sync":
        return reference_sync_schedule(plan, train_time_s, comm_s)
    schedule = TransmissionSchedule()
    for k, passes in enumerate(plan.passes):
        comm, t_l = comm_s[k], train_time_s[k]
        cycles, free, waiting = [], 0.0, None
        for n, p in enumerate(passes):
            if waiting is not None:
                # an offline update uploads in the first later pass that fits
                ul = fit(p, comm[n], waiting[2] + t_l)
                if ul is None:
                    continue
                cycles.append(ScheduledCycle(Mode.TRAIN_OFFLINE, *waiting, n, *ul))
                waiting, free = None, ul[1]
            # free during pass n: train online in pass n + 1 when rise + DL +
            # training + UL <= set there, else download now
            if policy == "fedsatschedule" and n + 1 < len(passes):
                q, c = passes[n + 1], comm[n + 1]
                if q.rise_s + c + t_l + c <= q.set_s:
                    ul_start = q.rise_s + c + t_l
                    cycles.append(ScheduledCycle(Mode.TRAIN_ONLINE, n + 1, q.rise_s,
                                                 q.rise_s + c, n + 1, ul_start, ul_start + c))
                    free = ul_start + c
                    continue
            dl = fit(p, comm[n], free)
            # a download that misses this pass decides again at the next
            waiting = None if dl is None else (n, *dl)
        if waiting is not None:
            # the horizon ends before the update can be uploaded
            cycles.append(ScheduledCycle(Mode.TRAIN_OFFLINE, *waiting, None, None, None))
        schedule.cycles.append(cycles)
    return schedule


def reference_sync_schedule(plan, train_time_s, comm_s):
    """Lockstep rounds: round 0 starts at t=0 and each later one when the
    last upload of the one before lands. In a round every satellite
    downloads at the rise of its first pass from then on that holds the
    exchange, trains, and uploads in the first pass that fits after. The
    rounds stop before one in which a satellite cannot download, and after
    one in which an upload finds no pass."""
    schedule = TransmissionSchedule([[] for _ in plan.passes])
    start = 0.0
    while plan.passes:
        round_ = []
        for k, passes in enumerate(plan.passes):
            comm = comm_s[k]
            dl = next(((n, p.rise_s, p.rise_s + comm[n]) for n, p in enumerate(passes)
                       if p.rise_s >= start and fit(p, comm[n], p.rise_s)), None)
            if dl is None:
                return schedule
            ready = dl[2] + train_time_s[k]
            ul = next(((n, *fit(p, comm[n], ready)) for n, p in enumerate(passes)
                       if n >= dl[0] and fit(p, comm[n], ready)), (None, None, None))
            round_.append(ScheduledCycle(Mode.TRAIN_OFFLINE, *dl, *ul))
        for cycles, c in zip(schedule.cycles, round_):
            cycles.append(c)
        if any(c.ul_complete_s is None for c in round_):
            return schedule
        start = max(c.ul_complete_s for c in round_)
    return schedule


def check_run(r, policy, cap):
    n_sats = r.scenario.satellite_count
    assert len(r.schedule.cycles) == n_sats
    exchanges = {}
    for k, cycles in enumerate(r.schedule.cycles):
        passes = r.plan.passes[k]
        free = 0.0
        for i, c in enumerate(cycles):
            # every exchange lies inside the pass it names, of its own satellite
            p = passes[c.dl_pass]
            assert p.rise_s <= c.dl_start_s <= c.dl_complete_s <= p.set_s
            # cycles never overlap: each starts after the last one's upload
            assert free <= c.dl_start_s
            if c.ul_complete_s is None:
                # an update without an upload ends its satellite's schedule
                assert i == len(cycles) - 1
                break
            q = passes[c.ul_pass]
            assert q.rise_s <= c.ul_start_s <= c.ul_complete_s <= q.set_s
            assert c.dl_complete_s + r.scenario.train_time_s <= c.ul_start_s
            free = c.ul_complete_s
            exchanges[(k, c.ul_complete_s)] = c
    if cap is not None:
        assert peak_links(r.schedule) <= cap
    if policy == "fedsatschedule":
        # an update is trained offline only when the online cycle would not
        # fit the next pass: DL at its rise, training, then UL
        _, comm = plan_and_price(r.scenario)
        t_l = r.scenario.train_time_s
        for k, cycles in enumerate(r.schedule.cycles):
            passes = r.plan.passes[k]
            for c in cycles:
                q = c.dl_pass + 1
                if c.mode is Mode.TRAIN_OFFLINE and q < len(passes):
                    assert passes[q].rise_s + comm[k][q] + t_l + comm[k][q] > passes[q].set_s

    ups = r.upload_rows()
    # every replayed upload is a scheduled one, and every scheduled one is replayed
    assert sorted((u.satellite_id, u.sim_time_s) for u in ups) == sorted(exchanges)
    for i, u in enumerate(ups):
        c = exchanges[(u.satellite_id, u.sim_time_s)]
        assert u.time_staleness_s == c.ul_complete_s - c.dl_complete_s >= 0.0
        if policy == "fedavg_sync":
            # a round downloads after the last one's aggregation
            assert u.epoch_staleness == 0
        else:
            # uploads replayed after the download; one at the download's
            # instant is replayed before it
            assert u.epoch_staleness == sum(
                v.sim_time_s > c.dl_complete_s for v in ups[:i]
            )
    if policy == "fedavg_sync":
        for e in range(r.global_epoch):
            assert sorted(u.satellite_id for u in ups if u.global_epoch == e) == list(
                range(n_sats)
            )
        # an unfinished last round reports each satellite at most once
        tail = [u.satellite_id for u in ups if u.global_epoch == r.global_epoch]
        assert len(tail) == len(set(tail)) < n_sats
    else:
        assert [u.global_epoch for u in ups] == list(range(1, len(ups) + 1))


def test_upload_download_and_evaluation_at_one_instant():
    """At one instant satellite 0 uploads, satellite 1 downloads and the
    model is evaluated; the engine must replay them as the reference does.

    A download taken before the upload snapshots the older model, and an
    evaluation before the upload logs the older epoch, so both orders change
    the rows. An evaluation before the download changes no output; only
    tests/test_engine.py::TestTimeline guards that order.
    """
    orbit_list = [OrbitConfig(altitude_m=500e3, inclination_deg=80.0, satellite_count=2)]
    s = scenario(orbit_list, "fedsat", latitude=53.07, horizon_s=21600.0,
                 train_time_s=30.0, model_bits=None, cap=None, seed=0)
    t = 2 * s.eval_period_s

    def cycle(dl_complete, ul_complete):
        return ScheduledCycle(Mode.TRAIN_OFFLINE, 0, dl_complete - 1.0, dl_complete,
                              0, ul_complete - 1.0, ul_complete)

    schedule = TransmissionSchedule([[cycle(100.0, t)], [cycle(t, t + 600.0)]])
    with mock.patch.object(engine, "extract_schedule", lambda *args: schedule):
        r = run_simulation(s)
    assert [(row.satellite_id, row.global_epoch) for row in r.rows
            if row.sim_time_s == t] == [(0, 1), (None, 1)]
    rows, final_params = reference_replay(r)
    assert r.rows == rows
    assert np.array_equal(r.final_params, final_params)


def reference_replay(r):
    """The metrics rows and final model of r's schedule, rebuilt naively.

    Each uploaded cycle (k, c) trains alone from the global model after
    every aggregation that lands at or before its download. Uploads and
    evaluations are taken in time order; at equal times uploads come
    first, lower satellite ids first, so an evaluation sees them. The
    asynchronous policies aggregate at every upload; fedavg_sync
    aggregates a round when its last upload lands.
    """
    s = r.scenario
    sync = s.policy == "fedavg_sync"
    learner, profile = s.learner(), s.compute_profile()
    train, test = generate_synthetic_task(
        s.classes, s.feature_dim, s.samples_per_class, s.seed,
        spread=s.spread, test_samples_per_class=s.test_samples_per_class,
    )
    shards = partition_non_iid(train, *s.label_split(), s.seed)
    total = sum(map(len, shards.values()))
    weights = {k: len(rows) / total for k, rows in shards.items()}
    params = learner.init_params(np.random.default_rng(np.random.SeedSequence([s.seed])))
    # the global epoch is the number of aggregations so far, len(agg_times)
    agg_times, models = [], [params]

    def download(k, c):
        """The model cycle (k, c) downloads and its global epoch."""
        epoch = bisect.bisect_right(agg_times, r.schedule.cycles[k][c].dl_complete_s)
        return models[epoch], epoch

    def trained(k, c):
        seed = np.random.SeedSequence([s.seed, k, c])
        return local_sgd(learner, [download(k, c)[0]], train, [shards[k]], profile,
                         [seed])[0]

    uploads = [(cyc.ul_complete_s, 0, k, c)
               for k, cycles in enumerate(r.schedule.cycles)
               for c, cyc in enumerate(cycles) if cyc.ul_complete_s is not None]
    evals = [(i * s.eval_period_s, 1, -1, i)
             for i in range(int(s.horizon_s // s.eval_period_s) + 1)]
    rows, prev, rounds = [], {}, {}
    for t, is_eval, k, c in sorted(uploads + evals):
        if is_eval:
            accuracy = evaluate_accuracy(learner, params, test)
            rows.append(MetricsRow(t, len(agg_times), None, None, None, accuracy))
            continue
        dl_time = r.schedule.cycles[k][c].dl_complete_s
        logged = len(agg_times) if sync else len(agg_times) + 1
        rows.append(MetricsRow(t, logged, k, len(agg_times) - download(k, c)[1],
                               t - dl_time, None))
        if sync:
            rounds.setdefault(c, []).append(k)
            if len(rounds[c]) < len(shards):
                continue
            params = fedavg_sync_aggregate(params, weights,
                                           {j: trained(j, c) for j in rounds[c]})
        else:
            new = trained(k, c)
            params = fedsat_aggregate(params, weights[k], prev.get(k, download(k, c)[0]), new)
            prev[k] = new
        agg_times.append(t)
        models.append(params)
    return rows, params
