import dataclasses

import numpy as np
import pytest

from satfl import bundled_scenario_path, load_scenario
from satfl.engine import _Engine, compare_runs, run_simulation
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
from satfl.scheduler import Mode


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
        labels_per_group=4,
        train_time_s=30.0,
        horizon_s=43200.0,
        eval_period_s=600.0,
        seed=1,
    )
    base.update(overrides)
    scenario = Scenario(**base)
    scenario.validate()
    return scenario


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
        r = run_simulation(small_scenario(orbits=[], labels_per_group=None))
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
        data = partition_non_iid(train, [[0]], scenario.labels_per_group,
                                 scenario.seed)[0]
        w = learner.init_params(
            np.random.default_rng(np.random.SeedSequence([scenario.seed]))
        )
        for cycle in range(len(uploads)):
            seed = np.random.SeedSequence([scenario.seed, 0, cycle])
            w = local_sgd(learner, w, data, scenario.compute_profile(), seed)
        assert np.max(np.abs(result.final_params - w)) <= 1e-12


class TestScheduleConsistency:
    def test_upload_count_matches_epochs(self):
        r = run_simulation(small_scenario())
        assert len(r.upload_rows()) == r.global_epoch

    def test_offline_training_duration(self):
        scenario = small_scenario()
        r = run_simulation(scenario)
        for c in r.schedule.cycles[0]:
            if c.mode is Mode.TRAIN_OFFLINE:
                assert c.train_complete_s == pytest.approx(
                    c.dl_complete_s + scenario.train_time_s
                )

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
            labels_per_group=2,
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
    def test_large_model_exchanges_fit_own_passes(self, policy, monkeypatch):
        # at 5e8 bits an exchange takes longer than some Bremen passes, so
        # every policy has to skip those passes rather than overrun them
        engines = []
        run = _Engine.run

        def capture(self):
            engines.append(self)
            run(self)

        monkeypatch.setattr(_Engine, "run", capture)
        scenario = dataclasses.replace(
            load_scenario(bundled_scenario_path()), policy=policy, model_bits=500_000_000
        )
        r = run_simulation(scenario)
        assert r.global_epoch >= 1
        transmissions = engines[0].transmissions
        assert transmissions
        for k, start, stop in transmissions:
            assert any(
                p.rise_s <= start <= stop <= p.set_s for p in r.plan.passes[k]
            ), (k, start, stop)


class TestConcurrencyCap:
    def coincident_pair(self, cap):
        # two satellites on the same orbit trace identical ground tracks,
        # so their exchanges always overlap
        return small_scenario(
            orbits=[
                OrbitConfig(altitude_m=500e3, inclination_deg=80.0),
                OrbitConfig(altitude_m=500e3, inclination_deg=80.0),
            ],
            labels_per_group=4,
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
