import yaml
import pytest

from satfl.cli import main


@pytest.fixture
def scenario_file(tmp_path):
    doc = {
        "constellation": {
            "orbits": [{"altitude_m": 500e3, "inclination_deg": 80.0}],
        },
        "ground_station": {
            "latitude_deg": 53.07,
            "longitude_deg": 8.8,
            "min_elevation_deg": 10.0,
        },
        "link": {
            "power_dbm": 40.0,
            "gain_sat_dbi": 6.98,
            "gain_gs_dbi": 6.98,
            "bandwidth_hz": 20e6,
            "noise_temp_k": 290.0,
            "carrier_hz": 2.4e9,
        },
        "learner": {
            "classes": 4,
            "feature_dim": 4,
            "samples_per_class": 50,
            "test_samples_per_class": 20,
            "labels_per_group": 4,
        },
        "sim": {"horizon_s": 21600.0},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestPlan:
    def test_writes_contact_plan(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "plan_out"
        assert main(["plan", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
        lines = (out / "contact_plan.csv").read_text().splitlines()
        assert lines[0] == ("satellite_id,pass_index,rise_s,set_s,"
                            "duration_s,max_distance_m")
        assert len(lines) > 1
        assert "satellite 0" in capsys.readouterr().out


class TestRun:
    def run(self, scenario_file, out, extra=()):
        return main(["run", "--scenario", str(scenario_file),
                     "--out", str(out), *extra])

    def test_writes_all_artifacts(self, scenario_file, tmp_path):
        out = tmp_path / "run_out"
        assert self.run(scenario_file, out) == 0
        for name in ("contact_plan.csv", "schedule.csv", "metrics.csv",
                     "summary.txt"):
            assert (out / name).exists()
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("sim_time_s,global_epoch,satellite_id,"
                          "epoch_staleness,time_staleness_s,test_accuracy")

    def test_repeat_runs_byte_identical(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(scenario_file, a) == 0
        assert self.run(scenario_file, b) == 0
        for name in ("contact_plan.csv", "schedule.csv", "metrics.csv",
                     "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_metrics(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(scenario_file, a) == 0
        assert self.run(scenario_file, b, ["--seed", "9"]) == 0
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()

    def test_horizon_flag_is_in_hours(self, scenario_file, tmp_path):
        out = tmp_path / "h"
        assert self.run(scenario_file, out, ["--horizon", "3"]) == 0
        summary = (out / "summary.txt").read_text()
        assert "horizon_s = 10800.000000" in summary

    def test_policy_override(self, scenario_file, tmp_path):
        out = tmp_path / "sync"
        assert self.run(scenario_file, out, ["--policy", "fedavg_sync"]) == 0
        # the synchronous baseline has no precomputed schedule to export
        assert not (out / "schedule.csv").exists()
        assert (out / "metrics.csv").exists()

    def test_training_time_override(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(scenario_file, a) == 0
        # longer than the revisit gap, so uploads move to later passes
        assert self.run(scenario_file, b, ["--tl", "15000"]) == 0
        assert (a / "schedule.csv").read_bytes() != (b / "schedule.csv").read_bytes()

    def test_empty_constellation_still_runs(self, scenario_file, tmp_path):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["constellation"]["orbits"] = []
        del doc["learner"]["labels_per_group"]
        empty = scenario_file.with_name("empty.yaml")
        empty.write_text(yaml.safe_dump(doc))
        out = tmp_path / "empty_out"
        assert self.run(empty, out) == 0
        assert "global_epochs = 0" in (out / "summary.txt").read_text()


class TestCompare:
    def test_default_policy_pair(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(scenario_file),
                     "--out", str(out)]) == 0
        assert (out / "comparison.csv").exists()
        assert (out / "metrics_fedsat.csv").exists()
        assert (out / "metrics_fedsatschedule.csv").exists()
        printed = capsys.readouterr().out
        assert "fedsat:" in printed and "fedsatschedule:" in printed

    def test_single_policy_rejected(self, scenario_file, tmp_path):
        assert main(["compare", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / "cmp"),
                     "--policies", "fedsat"]) == 2

    def test_unknown_policy_rejected(self, scenario_file, tmp_path):
        assert main(["compare", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / "cmp"),
                     "--policies", "fedsat,magic"]) == 2


class TestErrorPaths:
    def test_malformed_scenario_exits_2_without_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("constellation: [unclosed\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_missing_scenario_file(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_incomplete_scenario(self, tmp_path):
        partial = tmp_path / "partial.yaml"
        partial.write_text(yaml.safe_dump({"constellation": {"orbits": []}}))
        assert main(["plan", "--scenario", str(partial),
                     "--out", str(tmp_path / "out")]) == 2

    def test_infeasible_schedule_exits_2_with_location(self, scenario_file,
                                                       tmp_path, capsys):
        # without the strict budget, fedsatschedule trains online on any
        # pass longer than t_l, but a 5e8-bit exchange outlasts every pass
        doc = yaml.safe_load(scenario_file.read_text())
        doc["scheduler"] = {"policy": "fedsatschedule",
                            "strict_online_budget": False}
        doc["sim"]["model_bits"] = 500_000_000
        loose = scenario_file.with_name("loose.yaml")
        loose.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(loose),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "error: satellite 0, pass 1: transmission overruns the pass by" in err
