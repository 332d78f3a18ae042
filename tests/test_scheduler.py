import math

import pytest

from satfl.errors import ScenarioError
from satfl.link import LinkBudget, db_to_linear, dbm_to_watts, pass_comm_time
from satfl.orbital import ContactPlan, Pass
from satfl.scheduler import Mode, check_link_cap, extract_schedule


def make_plan(pass_lists):
    # the scheduler reads exchange times, never the range they were priced at
    return ContactPlan(passes=[[Pass(r, s, 2e6) for r, s in sats] for sats in pass_lists])


def uniform_comm(plan, comm=10.0):
    return [[comm] * len(p) for p in plan.passes]


def first_mode(plan, t_l, comm=None, policy="fedsatschedule"):
    """Mode of satellite 0's first cycle; exchanges take no time unless
    given, so the online cycle fits when the next pass lasts at least t_l."""
    sched = extract_schedule(plan, policy, t_l, comm or uniform_comm(plan, 0.0))
    return sched.cycles[0][0].mode


class TestDecisionRule:
    @pytest.mark.parametrize("duration", [60.0, 300.0, 600.0, 1800.0])
    @pytest.mark.parametrize("t_l", [30.0, 900.0, 1800.0])
    def test_offline_iff_next_pass_shorter_than_training(self, duration, t_l):
        plan = make_plan([[(0.0, 100.0), (1000.0, 1000.0 + duration)]])
        expected = Mode.TRAIN_OFFLINE if duration < t_l else Mode.TRAIN_ONLINE
        assert first_mode(plan, t_l) is expected

    def test_tie_goes_online(self):
        plan = make_plan([[(0.0, 100.0), (1000.0, 1600.0)]])
        assert first_mode(plan, 600.0) is Mode.TRAIN_ONLINE

    def test_exact_fit_goes_online(self):
        # 1000.1 + 30 == 1030.1 exactly, though 1030.1 - 1000.1 < 30
        plan = make_plan([[(0.0, 100.0), (1000.1, 1030.1)]])
        assert first_mode(plan, 30.0) is Mode.TRAIN_ONLINE

    def test_rounding_overrun_goes_offline(self):
        # the pass duration less both exchanges equals t_l exactly, yet
        # rise + DL + t_l + UL overruns the set by one rounding step
        plan = make_plan([[(0.0, 100.0), (1109.779428363276, 1560.0910690023213)]])
        comm = uniform_comm(plan, 9.565430310897586)
        t_l = 431.1807800172501
        assert first_mode(plan, t_l, comm) is Mode.TRAIN_OFFLINE
        assert first_mode(plan, t_l - 1e-9, comm) is Mode.TRAIN_ONLINE

    def test_no_next_pass_falls_back_offline(self):
        plan = make_plan([[(0.0, 100.0)]])
        assert first_mode(plan, 1.0) is Mode.TRAIN_OFFLINE

    def test_only_next_pass_exchange_time_counts(self):
        plan = make_plan([[(0.0, 100.0), (1000.0, 2000.0)]])
        # the raw duration (1000 s) would go online for t_l = 900 s; the
        # strict budget takes the next pass's exchanges off it, not this one's
        assert first_mode(plan, 900.0) is Mode.TRAIN_ONLINE
        assert first_mode(plan, 900.0, [[500.0, 0.0]]) is Mode.TRAIN_ONLINE
        assert first_mode(plan, 900.0, [[0.0, 100.0]]) is Mode.TRAIN_OFFLINE

    def test_baseline_always_offline(self):
        plan = make_plan([[(0.0, 100.0), (1000.0, 9000.0)]])
        sched = extract_schedule(plan, "fedsat", 1.0, uniform_comm(plan, 0.0))
        assert len(sched.cycles[0]) == 2
        assert all(c.mode is Mode.TRAIN_OFFLINE for c in sched.cycles[0])


class TestNextPassExchangesCountAgainstOnlineCycle:
    """The online cycle fits when the training time is at most the next
    pass's duration minus its DL and UL times."""

    def budget(self):
        return LinkBudget(dbm_to_watts(40.0), db_to_linear(6.98), db_to_linear(6.98),
                          20e6, 290.0, 2.4e9)

    def test_subtracts_both_exchanges(self):
        exchange = pass_comm_time(self.budget(), 32.0 * 90, 1.5e6)
        plan = make_plan([[(0.0, 100.0), (1000.0, 1600.0)]])
        comm = uniform_comm(plan, exchange)
        effective = 600.0 - 2 * exchange
        assert first_mode(plan, effective - 1e-6, comm) is Mode.TRAIN_ONLINE
        assert first_mode(plan, effective + 1e-6, comm) is Mode.TRAIN_OFFLINE

    def test_pass_shorter_than_its_exchanges_holds_none(self):
        # a next pass shorter than its exchanges holds no in-pass cycle,
        # however short the training
        exchange = pass_comm_time(self.budget(), 32.0 * 1e6, 2.5e6)
        plan = make_plan([[(0.0, 100.0), (1000.0, 1000.001)]])
        assert first_mode(plan, math.ulp(0.0), uniform_comm(plan, exchange)) is (
            Mode.TRAIN_OFFLINE)


class TestExtractScheduleOffline:
    def test_single_cycle_placement(self):
        plan = make_plan([[(100.0, 400.0), (5000.0, 5400.0)]])
        sched = extract_schedule(plan, "fedsat", 60.0, uniform_comm(plan, 20.0))
        c, trailing = sched.cycles[0]
        assert c.mode is Mode.TRAIN_OFFLINE
        assert c.dl_start_s == 100.0
        assert c.dl_complete_s == 120.0
        assert c.ul_start_s >= c.dl_complete_s + 60.0
        assert c.ul_pass == 1
        assert c.ul_start_s == 5000.0
        assert c.ul_complete_s == 5020.0
        # the follow-on cycle downloads right after that upload but runs
        # out of passes for its own upload
        assert trailing.dl_start_s == 5020.0
        assert trailing.ul_pass is None

    def test_training_longer_than_gap_skips_a_pass(self):
        plan = make_plan(
            [[(0.0, 300.0), (1000.0, 1300.0), (2000.0, 2300.0)]]
        )
        sched = extract_schedule(plan, "fedsat", 1500.0, uniform_comm(plan))
        c = sched.cycles[0][0]
        # 10 + 1500 > rise of pass 1, so the upload lands in pass 2
        assert c.ul_pass == 2
        assert c.ul_start_s == 2000.0

    def test_trailing_update_without_upload_pass(self):
        plan = make_plan([[(0.0, 300.0)]])
        sched = extract_schedule(plan, "fedsat", 60.0, uniform_comm(plan))
        (c,) = sched.cycles[0]
        assert c.ul_pass is None and c.ul_start_s is None

    def test_chained_cycles_share_upload_pass(self):
        plan = make_plan(
            [[(0.0, 400.0), (3000.0, 3400.0), (6000.0, 6400.0)]]
        )
        sched = extract_schedule(plan, "fedsat", 60.0, uniform_comm(plan, 20.0))
        first, second = sched.cycles[0][:2]
        # next cycle's download starts right after the upload in the same pass
        assert second.dl_pass == first.ul_pass
        assert second.dl_start_s == first.ul_complete_s

    def test_transmissions_inside_visibility(self):
        plan = make_plan(
            [[(0.0, 400.0), (3000.0, 3500.0), (7000.0, 7600.0)]]
        )
        sched = extract_schedule(plan, "fedsat", 200.0, uniform_comm(plan, 30.0))
        for c in sched.cycles[0]:
            dl_pass = plan.passes[0][c.dl_pass]
            assert dl_pass.rise_s <= c.dl_start_s
            assert c.dl_complete_s <= dl_pass.set_s
            if c.ul_pass is not None:
                ul_pass = plan.passes[0][c.ul_pass]
                assert ul_pass.rise_s <= c.ul_start_s
                assert c.ul_complete_s <= ul_pass.set_s
                assert c.ul_start_s >= c.dl_complete_s + 200.0


class TestExtractScheduleOnline:
    def test_online_cycle_confined_to_one_pass(self):
        plan = make_plan([[(0.0, 300.0), (2000.0, 3000.0)]])
        sched = extract_schedule(plan, "fedsatschedule", 100.0, uniform_comm(plan, 15.0))
        online = [c for c in sched.cycles[0] if c.mode is Mode.TRAIN_ONLINE]
        assert online
        c = online[0]
        assert c.dl_pass == c.ul_pass == 1
        assert c.dl_start_s == 2000.0
        assert c.ul_start_s == c.dl_complete_s + 100.0
        assert c.ul_complete_s <= 3000.0

    def test_short_next_pass_stays_offline(self):
        plan = make_plan([[(0.0, 300.0), (2000.0, 2100.0), (5000.0, 6000.0)]])
        sched = extract_schedule(plan, "fedsatschedule", 500.0, uniform_comm(plan, 15.0))
        assert sched.cycles[0][0].mode is Mode.TRAIN_OFFLINE

    def test_exchanges_push_exact_training_fit_offline(self):
        # next pass lasts exactly t_l: raw duration says online, but the
        # exchanges leave too little room for the online cycle
        plan = make_plan([[(0.0, 300.0), (2000.0, 2600.0)]])
        strict = extract_schedule(plan, "fedsatschedule", 600.0, uniform_comm(plan, 50.0))
        assert strict.cycles[0][0].mode is Mode.TRAIN_OFFLINE


class TestPolicyAgreement:
    def test_identical_when_all_decisions_offline(self):
        # every pass far shorter than t_l: the scheduling policy collapses
        # onto the baseline, cycle for cycle
        plan = make_plan(
            [[(0.0, 200.0), (3000.0, 3200.0), (6000.0, 6200.0),
              (9000.0, 9200.0)]]
        )
        comm = uniform_comm(plan)
        a = extract_schedule(plan, "fedsat", 5000.0, comm)
        b = extract_schedule(plan, "fedsatschedule", 5000.0, comm)
        assert a.cycles == b.cycles

    def test_online_updates_are_fresher(self):
        # with in-pass training feasible everywhere, each update of the
        # scheduling policy is younger at upload time than the baseline's
        plan = make_plan(
            [[(0.0, 500.0), (3000.0, 3600.0), (6000.0, 6700.0),
              (9000.0, 9600.0)]]
        )
        comm = uniform_comm(plan)
        a = extract_schedule(plan, "fedsat", 100.0, comm)
        b = extract_schedule(plan, "fedsatschedule", 100.0, comm)
        for base, sched in zip(a.cycles[0], b.cycles[0]):
            if base.ul_complete_s is None or sched.ul_complete_s is None:
                continue
            base_age = base.ul_complete_s - base.dl_start_s
            sched_age = sched.ul_complete_s - sched.dl_start_s
            assert sched_age < base_age

    def test_unknown_policy_rejected(self):
        plan = make_plan([[(0.0, 200.0)]])
        with pytest.raises(ValueError):
            extract_schedule(plan, "fedprox", 10.0, uniform_comm(plan))

    def test_satellite_with_no_passes(self):
        plan = make_plan([[], [(0.0, 300.0), (2000.0, 2400.0)]])
        sched = extract_schedule(plan, "fedsat", 60.0, uniform_comm(plan))
        assert sched.cycles[0] == []
        assert len(sched.cycles[1]) >= 1


def sync_schedule(plan, train_time_s):
    return extract_schedule(plan, "fedavg_sync", train_time_s, uniform_comm(plan))


class TestSyncSchedule:
    def test_round_starts_when_last_upload_lands(self):
        plan = make_plan([
            [(0.0, 300.0), (1000.0, 1300.0), (5000.0, 5300.0), (9000.0, 9300.0)],
            [(100.0, 400.0), (2000.0, 2300.0), (6000.0, 6300.0), (9500.0, 9800.0)],
        ])
        sched = sync_schedule(plan, 60.0)
        # rounds end at 180, 2080, 6080 and 9580 s; sat 0's pass 1 rises
        # before round 2 starts, so round 2 waits for its pass 2
        assert [c.dl_start_s for c in sched.cycles[0]] == [0.0, 1000.0, 5000.0, 9000.0]
        assert [c.dl_start_s for c in sched.cycles[1]] == [100.0, 2000.0, 6000.0, 9500.0]
        for k in (0, 1):
            for c in sched.cycles[k]:
                assert c.mode is Mode.TRAIN_OFFLINE
                assert c.dl_complete_s == c.dl_start_s + 10.0
                assert c.ul_pass == c.dl_pass
                trained = c.dl_complete_s + 60.0
                assert (c.ul_start_s, c.ul_complete_s) == (trained, trained + 10.0)

    def test_exchanges_skip_passes_they_do_not_fit(self):
        plan = make_plan([[(0.0, 5.0), (1000.0, 1300.0), (1350.0, 1415.0),
                           (3000.0, 3300.0)]])
        (c,) = sync_schedule(plan, 400.0).cycles[0]
        # pass 0 is shorter than the download; training outlasts pass 1 and
        # its upload does not fit in what is left of pass 2
        assert (c.dl_pass, c.dl_start_s) == (1, 1000.0)
        assert (c.ul_pass, c.ul_start_s) == (3, 3000.0)

    def test_missing_upload_ends_the_schedule(self):
        plan = make_plan([
            [(0.0, 300.0), (1000.0, 1300.0), (5000.0, 5300.0)],
            [(100.0, 165.0)],
        ])
        # sat 1's pass ends 5 s before its update is trained
        sched = sync_schedule(plan, 60.0)
        (c0,), (c1,) = sched.cycles
        assert c0.ul_pass == 0
        assert c1.ul_pass is None and c1.ul_start_s is None and c1.ul_complete_s is None

    def test_satellite_without_download_pass_ends_the_schedule(self):
        plan = make_plan([
            [(0.0, 300.0), (1000.0, 1300.0)],
            [(100.0, 400.0)],
        ])
        sched = sync_schedule(plan, 60.0)
        assert [len(cycles) for cycles in sched.cycles] == [1, 1]
        assert sync_schedule(make_plan([[], [(0.0, 300.0)]]), 60.0).cycles == [[], []]

    def test_empty_constellation(self):
        assert sync_schedule(make_plan([]), 60.0).cycles == []


class TestOneTrainingTime:
    """Every update of every satellite trains for the one train_time_s."""

    PASSES = [[(0.0, 300.0), (1000.0, 1300.0), (2500.0, 2700.0), (5000.0, 5300.0)],
              [(100.0, 400.0), (1500.0, 1900.0), (4000.0, 4400.0)]]

    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_each_upload_starts_once_its_update_is_trained(self, policy):
        plan = make_plan(self.PASSES)
        sched = extract_schedule(plan, policy, 450.0, uniform_comm(plan, 20.0))
        uploads = 0
        for passes, cycles in zip(plan.passes, sched.cycles):
            for c in cycles:
                if c.ul_pass is None:
                    continue
                uploads += 1
                ready = c.dl_complete_s + 450.0
                assert c.ul_start_s == max(passes[c.ul_pass].rise_s, ready)
        # both satellites upload at least once
        assert uploads >= 2 and all(cycles and cycles[0].ul_pass is not None
                                    for cycles in sched.cycles)

    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_twin_satellites_get_equal_cycles(self, policy):
        # two satellites with the same passes train for the same time, so
        # every cycle of one is the other's
        plan = make_plan([self.PASSES[0]] * 2)
        sched = extract_schedule(plan, policy, 450.0, uniform_comm(plan, 20.0))
        assert sched.cycles[0] and sched.cycles[0] == sched.cycles[1]


class TestLinkCap:
    def schedule(self, second_rise):
        plan = make_plan([[(0.0, 300.0)], [(second_rise, second_rise + 300.0)]])
        return sync_schedule(plan, 60.0)

    def test_touching_exchanges_do_not_overlap(self):
        # sat 0 downloads on [0, 10]; sat 1 starts the instant it ends
        check_link_cap(self.schedule(10.0), 1)

    def test_overlap_refused_with_its_instant(self):
        with pytest.raises(ScenarioError, match=r"more than 1 concurrent links "
                           r"at t=5\.000 s \(sim\.max_concurrent_links exceeded\)"):
            check_link_cap(self.schedule(5.0), 1)
        check_link_cap(self.schedule(5.0), 2)
