import bisect
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satfl import bundled_scenario_path, engine, load_scenario
from satfl.engine import compare_runs, run_simulation
from satfl.errors import ScenarioError
from satfl.learning import (
    generate_synthetic_task,
    local_sgd,
    make_learner,
    partition_non_iid,
)
from satfl.orbital import (
    elevation_angle,
    ground_station_position_eci,
    satellite_position_eci,
)
from satfl.scenario import OrbitConfig, Scenario, with_overrides
from satfl.scheduler import Mode, ScheduledCycle, TransmissionSchedule


def small_scenario(**overrides):
    base = dict(
        orbits=[OrbitConfig(altitude_m=500e3, inclination_deg=80.0)],
        gs_latitude_deg=53.07,
        gs_longitude_deg=8.8,
        gs_min_elevation_deg=10.0,
        power_dbm=40.0,
        gain_sat_dbi=6.98,
        gain_gs_dbi=6.98,
        bandwidth_hz=20e6,
        noise_temp_k=290.0,
        carrier_hz=2.4e9,
        classes=4,
        feature_dim=4,
        samples_per_class=50,
        test_samples_per_class=20,
        train_time_s=30.0,
        horizon_s=43200.0,
        eval_period_s=600.0,
        seed=1,
    )
    base.update(overrides)
    return Scenario(**base)


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self):
        a = run_simulation(small_scenario())
        b = run_simulation(small_scenario())
        assert a.rows == b.rows
        np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_seed_changes_outcome(self):
        a = run_simulation(small_scenario(seed=1))
        b = run_simulation(small_scenario(seed=2))
        assert not np.array_equal(a.final_params, b.final_params)


class TestEmptyConstellation:
    def test_eval_only_log(self):
        r = run_simulation(small_scenario(orbits=[]))
        assert r.global_epoch == 0
        assert r.upload_rows() == []
        evals = r.eval_rows()
        assert len(evals) == int(43200.0 / 600.0) + 1
        accs = {row.test_accuracy for row in evals}
        assert len(accs) == 1  # untouched model, constant accuracy


class TestEvalCadence:
    def test_rows_on_the_period_grid(self):
        r = run_simulation(small_scenario())
        times = [row.sim_time_s for row in r.eval_rows()]
        assert times == [600.0 * i for i in range(len(times))]
        assert times[-1] == 43200.0


class TestSingleSatelliteChain:
    def test_matches_sequential_sgd(self):
        scenario = small_scenario()
        result = run_simulation(scenario)
        uploads = [c for c in result.schedule.cycles[0] if c.ul_pass is not None]
        assert len(uploads) >= 2
        assert result.global_epoch == len(uploads)

        learner = make_learner(
            scenario.learner_kind, scenario.classes, scenario.feature_dim,
            scenario.hidden,
        )
        train, _ = generate_synthetic_task(
            scenario.classes, scenario.feature_dim, scenario.samples_per_class,
            scenario.seed, spread=scenario.spread,
            test_samples_per_class=scenario.test_samples_per_class,
        )
        rows = partition_non_iid(train, [[0]], scenario.label_split()[1],
                                 scenario.seed)[0]
        w = learner.init_params(
            np.random.default_rng(np.random.SeedSequence([scenario.seed]))
        )
        for cycle in range(len(uploads)):
            seed = np.random.SeedSequence([scenario.seed, 0, cycle])
            w = local_sgd(learner, [w], train, [rows], scenario.compute_profile(),
                          [seed])[0]
        assert np.max(np.abs(result.final_params - w)) <= 1e-12


class TestScheduleConsistency:
    def test_upload_count_matches_epochs(self):
        r = run_simulation(small_scenario())
        assert len(r.upload_rows()) == r.global_epoch

    def test_offline_training_duration(self):
        scenario = small_scenario()
        r = run_simulation(scenario)
        for c in r.schedule.cycles[0]:
            if c.mode is Mode.TRAIN_OFFLINE and c.ul_start_s is not None:
                assert c.ul_start_s >= c.dl_complete_s + scenario.train_time_s

    def test_satellite_visible_at_every_exchange_instant(self):
        # rise/set instants are refined to 0.1 s, so allow the matching
        # slack in elevation at exchange boundaries
        scenario = small_scenario()
        r = run_simulation(scenario)
        orbit = scenario.orbit_specs()[0]
        gs = scenario.ground_station()
        instants = []
        for c in r.schedule.cycles[0]:
            instants += [c.dl_start_s, c.dl_complete_s]
            if c.ul_start_s is not None:
                instants += [c.ul_start_s, c.ul_complete_s]
        assert instants
        for t in instants:
            sat = satellite_position_eci(orbit, 0, t)
            elev = elevation_angle(sat, ground_station_position_eci(gs, t))
            assert elev >= gs.min_elevation_rad - 5e-3

    def test_staleness_fields_nonnegative(self):
        r = run_simulation(small_scenario())
        for row in r.upload_rows():
            assert row.time_staleness_s >= 0.0
            assert row.epoch_staleness >= 0


class TestSyncBaseline:
    def two_sat_scenario(self, **overrides):
        return small_scenario(
            orbits=[
                OrbitConfig(altitude_m=500e3, inclination_deg=80.0),
                OrbitConfig(altitude_m=2000e3, inclination_deg=80.0,
                            raan_deg=36.0),
            ],
            policy="fedavg_sync",
            **overrides,
        )

    def test_rounds_complete_in_lockstep(self):
        r = run_simulation(self.two_sat_scenario())
        assert r.global_epoch >= 1
        # every aggregation consumed exactly one upload from each satellite
        ups = r.upload_rows()
        assert len(ups) >= 2 * r.global_epoch
        per_sat = {k: sum(1 for u in ups if u.satellite_id == k) for k in (0, 1)}
        assert abs(per_sat[0] - per_sat[1]) <= 1

    def test_slower_than_async_in_epochs(self):
        sync = run_simulation(self.two_sat_scenario())
        async_ = run_simulation(
            with_overrides(self.two_sat_scenario(), policy="fedsat")
        )
        assert sync.global_epoch <= async_.global_epoch


class TestTransmissionsInsidePasses:
    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_large_model_exchanges_fit_own_passes(self, policy):
        # at 5e8 bits an exchange takes longer than some Bremen passes, so
        # every policy has to skip those passes rather than overrun them
        scenario = dataclasses.replace(
            load_scenario(bundled_scenario_path()), policy=policy, model_bits=500_000_000
        )
        r = run_simulation(scenario)
        assert r.global_epoch >= 1
        transmissions = []
        for k, cycles in enumerate(r.schedule.cycles):
            for c in cycles:
                transmissions.append((k, c.dl_start_s, c.dl_complete_s))
                if c.ul_complete_s is not None:
                    transmissions.append((k, c.ul_start_s, c.ul_complete_s))
        assert transmissions
        for k, start, stop in transmissions:
            assert any(
                p.rise_s <= start <= stop <= p.set_s for p in r.plan.passes[k]
            ), (k, start, stop)
        # every replayed upload is one of those exchanges
        uploads = {(k, stop) for k, _, stop in transmissions}
        assert len(r.upload_rows()) > 0
        for row in r.upload_rows():
            assert (row.satellite_id, row.sim_time_s) in uploads


class TestLearningCalls:
    STACKS = {"fedsat": 10, "fedsatschedule": 53, "fedavg_sync": 2}

    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_train_uploaded_updates_and_evaluate_new_epochs(self, policy, monkeypatch):
        # only updates whose result is read are trained, stacked across the
        # in-flight updates whose starts are fixed; an evaluation is computed
        # only when the global model has changed since the last one
        calls = Counter()
        sgd, evaluate = engine.local_sgd, engine.evaluate_accuracy

        def counted_sgd(learner, starts, *args):
            calls["stacks"] += 1
            calls["rows"] += len(starts)
            return sgd(learner, starts, *args)

        def counted_eval(*args):
            calls["eval"] += 1
            return evaluate(*args)

        monkeypatch.setattr(engine, "local_sgd", counted_sgd)
        monkeypatch.setattr(engine, "evaluate_accuracy", counted_eval)
        scenario = dataclasses.replace(
            load_scenario(bundled_scenario_path()), policy=policy
        )
        r = run_simulation(scenario)
        if policy == "fedavg_sync":
            assert calls["rows"] == r.global_epoch * scenario.satellite_count > 0
        else:
            assert calls["rows"] == len(r.upload_rows()) > 0
        assert calls["stacks"] == self.STACKS[policy]
        assert calls["eval"] == len({row.global_epoch for row in r.eval_rows()}) > 1


class TestTrainingTime:
    """Without train_time_s, prepare prices each satellite's training by the
    compute model: cycles_per_bit * local_iters * data_bits / cpu_hz, with
    32 bits per feature of each row of its shard."""

    MODEL = dict(train_time_s=None, cycles_per_bit=37.3, cpu_hz=1.7e9, local_iters=3)

    def prepared(self, **overrides):
        # four satellites in one altitude group: shards of 52, 52, 48 and 48 rows
        return engine.prepare(small_scenario(
            orbits=[OrbitConfig(altitude_m=2000e3, inclination_deg=80.0, raan_deg=r)
                    for r in (0.0, 30.0, 60.0, 90.0)],
            **{**self.MODEL, **overrides},
        ))

    def test_bits(self):
        bundled = dataclasses.replace(load_scenario(bundled_scenario_path()), **self.MODEL)
        assert ([t.hex() for t in engine.prepare(bundled).train_time_s]
                == ["0x1.141579fe0c233p-7"] * 10)
        assert [t.hex() for t in self.prepared().train_time_s] == (
            ["0x1.cb675229ce909p-12"] * 2 + ["0x1.a8109a9cbeacep-12"] * 2)

    def test_each_shard_by_its_length(self):
        prep = self.prepared()
        assert list(map(len, prep.shards.values())) == [52, 52, 48, 48]
        assert prep.train_time_s == pytest.approx(
            [37.3 * 3 * 32.0 * len(rows) * 4 / 1.7e9 for rows in prep.shards.values()])

    @pytest.mark.parametrize("field, scale", [
        ("cycles_per_bit", 2.0), ("local_iters", 2.0), ("feature_dim", 2.0),
        ("cpu_hz", 0.5),
    ])
    def test_linear_in_each_factor(self, field, scale):
        prep = self.prepared()
        doubled = self.prepared(**{field: 2 * getattr(prep.scenario, field)})
        assert doubled.train_time_s == pytest.approx(
            [scale * t for t in prep.train_time_s])


class TestStackedTraining:
    """A stacked run gives every update the bits it gets trained alone."""

    def uneven(self, policy):
        # four satellites in one altitude group: 50 samples per label dealt
        # round-robin give shards of 52, 52, 48 and 48 rows
        return small_scenario(
            orbits=[OrbitConfig(altitude_m=2000e3, inclination_deg=80.0, raan_deg=r)
                    for r in (0.0, 30.0, 60.0, 90.0)],
            policy=policy,
        )

    def run(self, policy, sgd, monkeypatch):
        """Run the uneven scenario with sgd in place of local_sgd; return the
        result, every trained row by (satellite, cycle) and the stack sizes.

        Each row's start must be the global model at its cycle's download:
        the model after the aggregations that land at or before the download
        completes (an upload at the same instant is replayed first)."""
        rows, stacks, starts, models = {}, [], {}, []

        def recorded(learner, start_models, data, shards, profile, seeds):
            out = sgd(learner, start_models, data, shards, profile, seeds)
            stacks.append(sorted(map(len, shards)))
            for start, seed, row in zip(start_models, seeds, out):
                _, k, cycle = seed.entropy
                starts[(k, cycle)] = start.copy()
                rows[(k, cycle)] = row.copy()
            return out

        def watched(aggregate):
            def wrapper(params, *update):
                if not models:
                    models.append(params)
                models.append(aggregate(params, *update))
                return models[-1]
            return wrapper

        monkeypatch.setattr(engine, "local_sgd", recorded)
        monkeypatch.setattr(engine, "fedsat_aggregate", watched(engine.fedsat_aggregate))
        monkeypatch.setattr(engine, "fedavg_sync_aggregate",
                            watched(engine.fedavg_sync_aggregate))
        r = run_simulation(self.uneven(policy))

        ups = r.upload_rows()
        if policy == "fedavg_sync":
            # round e aggregates when the last of its uploads lands
            n = r.scenario.satellite_count
            landed = [max(u.sim_time_s for u in ups if u.global_epoch == e)
                      for e in range(r.global_epoch)]
            assert all(sum(u.global_epoch == e for u in ups) == n
                       for e in range(r.global_epoch))
        else:
            landed = [u.sim_time_s for u in ups]
        assert len(models) == r.global_epoch + 1
        assert starts
        for (k, cycle), start in starts.items():
            dl_time = r.schedule.cycles[k][cycle].dl_complete_s
            epoch = bisect.bisect_right(landed, dl_time)
            # a cycle trains from the global model of its own download
            assert np.array_equal(start, models[epoch]), (k, cycle)
        return r, rows, stacks

    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_matches_one_call_per_update(self, policy, monkeypatch):
        def one_per_row(learner, starts, data, shards, profile, seeds):
            return np.array([
                local_sgd(learner, [w], data, [rows], profile, [s])[0]
                for w, rows, s in zip(starts, shards, seeds)
            ])

        r, rows, stacks = self.run(policy, local_sgd, monkeypatch)
        alone, alone_rows, _ = self.run(policy, one_per_row, monkeypatch)
        assert rows.keys() == alone_rows.keys()
        for key, row in rows.items():
            assert np.array_equal(row, alone_rows[key]), key
        assert r.rows == alone.rows
        assert np.array_equal(r.final_params, alone.final_params)
        assert all(len(set(sizes)) == 1 for sizes in stacks)
        if policy != "fedsatschedule":
            assert max(map(len, stacks)) > 1


class TestTimeline:
    def test_ties_go_upload_download_evaluation_then_satellite(self):
        def cycle(k, dl_complete, ul_complete=None):
            return ScheduledCycle(
                mode=Mode.TRAIN_OFFLINE,
                dl_pass=0, dl_start_s=dl_complete - 10.0, dl_complete_s=dl_complete,
                ul_pass=None if ul_complete is None else 0,
                ul_start_s=None if ul_complete is None else ul_complete - 10.0,
                ul_complete_s=ul_complete,
            )

        # at t=600 s satellites 2 and 0 upload, satellite 1 downloads and the
        # model is evaluated; satellite 3's upload is dropped, so its download
        # is left out too
        schedule = TransmissionSchedule([
            [cycle(0, 10.0, 600.0)], [cycle(1, 600.0, 900.0)], [cycle(2, 20.0, 600.0)],
            [cycle(3, 300.0)],
        ])
        timeline = engine._timeline(schedule, 1200.0, 600.0)
        assert timeline == [
            (0.0, engine.EVAL, -1, 0),
            (10.0, engine.DL, 0, 0),
            (20.0, engine.DL, 2, 0),
            (600.0, engine.UL, 0, 0),
            (600.0, engine.UL, 2, 0),
            (600.0, engine.DL, 1, 0),
            (600.0, engine.EVAL, -1, 1),
            (900.0, engine.UL, 1, 0),
            (1200.0, engine.EVAL, -1, 2),
        ]

    @staticmethod
    def eval_instants(horizon_s, eval_period_s):
        timeline = engine._timeline(TransmissionSchedule([]), horizon_s, eval_period_s)
        assert [e[3] for e in timeline] == list(range(len(timeline)))
        return [e[0] for e in timeline]

    @pytest.mark.parametrize("horizon_s, eval_period_s, count", [
        (256.2, 36.6, 8), (16.5, 1.1, 16), (4.3, 0.1, 44),
    ])
    def test_grid_keeps_an_instant_the_quotient_rounds_below(
            self, horizon_s, eval_period_s, count):
        # horizon_s / eval_period_s rounds just below the count - 1 periods
        # whose product is exactly the horizon
        assert horizon_s / eval_period_s < count - 1
        assert (count - 1) * eval_period_s == horizon_s
        instants = self.eval_instants(horizon_s, eval_period_s)
        assert len(instants) == count and instants[-1] == horizon_s

    @settings(max_examples=300, deadline=None)
    @given(
        period=st.floats(1e-3, 1e3),
        periods=st.integers(0, 3000),
        ulps=st.integers(-3, 3),
    )
    # the quotient rounds up to 2095 periods, which overshoot the horizon
    @example(period=40.48533769639936, periods=2095, ulps=-1)
    def test_grid_is_every_multiple_within_the_horizon(self, period, periods, ulps):
        # horizons at and a few ulps around a whole number of periods, where
        # the quotient's rounding decides the last instant
        horizon = float(periods * period)
        for _ in range(abs(ulps)):
            horizon = np.nextafter(horizon, np.inf if ulps > 0 else 0.0)
        horizon = float(horizon) if horizon > 0.0 else period
        expected = [i * period for i in range(int(horizon / period) + 3)
                    if i * period <= horizon]
        assert self.eval_instants(horizon, period) == expected


class TestConcurrencyCap:
    def coincident_pair(self, cap):
        # two satellites on the same orbit trace identical ground tracks,
        # so their exchanges always overlap
        return small_scenario(
            orbits=[
                OrbitConfig(altitude_m=500e3, inclination_deg=80.0),
                OrbitConfig(altitude_m=500e3, inclination_deg=80.0),
            ],
            max_concurrent_links=cap,
        )

    def test_cap_one_rejected(self):
        with pytest.raises(ScenarioError):
            run_simulation(self.coincident_pair(1))

    def test_cap_two_accepted(self):
        r = run_simulation(self.coincident_pair(2))
        assert r.global_epoch >= 1


class TestCompareRuns:
    def test_table_and_plan_identity(self):
        scenario = small_scenario(horizon_s=21600.0)
        results, table = compare_runs(scenario, ["fedsat", "fedsatschedule"])
        assert set(results) == {"fedsat", "fedsatschedule"}
        assert results["fedsat"].plan.passes == results["fedsatschedule"].plan.passes
        assert [row["policy"] for row in table] == ["fedsat", "fedsatschedule"]
        thresholds = {row["threshold_accuracy"] for row in table}
        assert len(thresholds) == 1

    def test_single_policy_rejected(self):
        with pytest.raises(ScenarioError):
            compare_runs(small_scenario(), ["fedsat"])

    def test_repeated_policy_rejected(self, monkeypatch):
        runs = []
        monkeypatch.setattr(engine, "prepare", runs.append)
        with pytest.raises(ScenarioError, match="policy 'fedsat' is listed twice"):
            compare_runs(small_scenario(), ["fedsat", "fedsatschedule", "fedsat"])
        assert runs == []

    def test_policies_share_one_preparation(self, monkeypatch):
        calls = []
        for name in ("compute_contact_plan", "generate_synthetic_task"):
            def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        results, _ = compare_runs(small_scenario(horizon_s=21600.0),
                                  ["fedsat", "fedsatschedule", "fedavg_sync"])
        assert sorted(calls) == ["compute_contact_plan", "generate_synthetic_task"]
        assert [r.scenario.policy for r in results.values()] == list(results)
