import re

import yaml
import pytest

from satfl import bundled_scenario_path, engine
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

    def test_prints_the_summary_it_writes(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "run_out"
        assert self.run(scenario_file, out) == 0
        assert capsys.readouterr().out == (out / "summary.txt").read_text()

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
        # the synchronous baseline builds a schedule but does not export it
        assert not (out / "schedule.csv").exists()
        assert (out / "metrics.csv").exists()

    def test_training_time_override(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(scenario_file, a) == 0
        # longer than the revisit gap, so uploads move to later passes
        assert self.run(scenario_file, b, ["--tl", "15000"]) == 0
        assert (a / "schedule.csv").read_bytes() != (b / "schedule.csv").read_bytes()

    def test_training_time_override_replaces_compute_model(self, scenario_file,
                                                           tmp_path):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["compute"] = {"cycles_per_bit": 20.0, "cpu_hz": 1e9}
        compute = scenario_file.with_name("compute.yaml")
        compute.write_text(yaml.safe_dump(doc))
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(scenario_file, a, ["--tl", "45"]) == 0
        assert self.run(compute, b, ["--tl", "45"]) == 0
        for name in ("schedule.csv", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_constellation_still_runs(self, scenario_file, tmp_path):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["constellation"]["orbits"] = []
        empty = scenario_file.with_name("empty.yaml")
        empty.write_text(yaml.safe_dump(doc))
        out = tmp_path / "empty_out"
        assert self.run(empty, out) == 0
        assert "global_epochs = 0" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_polar_station_clips_passes_at_the_horizon(self, policy, tmp_path):
        # from the pole, most of the bundled satellites are in view at the
        # horizon; their last passes end there instead of refusing the run
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        doc["ground_station"]["latitude_deg"] = 90
        polar = tmp_path / "polar.yaml"
        polar.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert self.run(polar, out, ["--policy", policy]) == 0
        plan = (out / "contact_plan.csv").read_text().splitlines()
        assert sum(row.split(",")[3] == "86400.000000" for row in plan) == 8


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

    def test_repeated_policy_rejected(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(scenario_file),
                     "--out", str(out), "--policies", "fedsat,fedsat"]) == 2
        assert not out.exists()
        assert "error: policy 'fedsat' is listed twice" in capsys.readouterr().err

    def test_unknown_policy_refused_before_any_work(self, scenario_file, tmp_path,
                                                    capsys, monkeypatch):
        # a misspelt policy is named before the plan is built or any SGD runs
        calls = []
        monkeypatch.setattr(engine, "prepare", lambda *args: calls.append(args))
        monkeypatch.setattr(engine, "local_sgd", lambda *args: calls.append(args))
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", str(scenario_file), "--out", str(out),
                     "--policies", "fedsat,fedsatshedule"]) == 2
        assert "error: policy 'fedsatshedule' must be one of" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


# scenario values (key=YAML literal) and flags that exit 2 at load, with the
# message naming their key
SCAN_BOUND = ("constellation satellites x sim.horizon_s / sim.coarse_step_s must be at "
              "most 50,000,000 grid points")
EVAL_BOUND = "sim.horizon_s / sim.eval_period_s must be at most 1,000,000 grid points"
TASK_BOUND = ("learner.classes x (learner.samples_per_class + "
              "learner.test_samples_per_class) x the widest of learner.feature_dim and "
              "learner.classes must be at most 20,000,000 matrix entries")
BAD_VALUES = [
    ("link.power_dbm=5000", "link.power_dbm is out of range"),
    ("sim.horizon_s=.nan", "sim.horizon_s must be a finite number, got nan"),
    ("sim.horizon_s=.inf", "sim.horizon_s must be a finite number, got inf"),
    ("sim.eval_period_s=.nan", "sim.eval_period_s must be a finite number, got nan"),
    ("compute.train_time_s=.nan",
     "compute.train_time_s must be a finite number, got nan"),
    ("learner.spread=.nan", "learner.spread must be a finite number, got nan"),
    ("link.bandwidth_hz=.nan", "link.bandwidth_hz must be a finite number, got nan"),
    ("constellation.orbits[0].altitude_m=.nan",
     "constellation.orbits[0].altitude_m must be a finite number, got nan"),
    ("--tl nan", "compute.train_time_s must be a finite number, got nan"),
    ("--tl inf", "compute.train_time_s must be a finite number, got inf"),
    ("--horizon inf", "sim.horizon_s must be a finite number, got inf"),
    # grids too large to build: refused before the contact plan allocates one
    ("--horizon 1e300", f"{SCAN_BOUND}, got 3.6e+303"),
    ("--horizon 1e12", f"{SCAN_BOUND}, got 3.6e+15"),
    # 10 satellites x 5.04e6 steps, just over the bound
    ("--horizon 14000", f"{SCAN_BOUND}, got 5.04e+07"),
    ("sim.eval_period_s=1.0e-9", f"{EVAL_BOUND}, got 8.64e+13"),
    ("sim.eval_period_s=0.05", f"{EVAL_BOUND}, got 1.73e+06"),
    # learning tasks too large to build, the one-hot of 20 000 classes included
    ("learner.feature_dim=1000000000", f"{TASK_BOUND}, got 6e+12"),
    ("learner.samples_per_class=10000000000", f"{TASK_BOUND}, got 1e+12"),
    ("learner.classes=20000", f"{TASK_BOUND}, got 2.4e+11"),
    ("learner.spread=-1.0", "learner.spread must be at least 0"),
    ("constellation.orbits[0].altitude_m=-5.0",
     "constellation.orbits[0]: altitude must be strictly positive"),
    ("ground_station.latitude_deg=95",
     "ground_station: latitude must lie in [-pi/2, pi/2]"),
    ("learner.eta=2.0", "learner: eta must lie in (0, 1]"),
    ("learner.batch_size=0", "learner: batch_size and local_iters must be >= 1"),
    ("constellation.orbits=5", "constellation.orbits must be a list"),
    ("constellation.orbits=null", "constellation.orbits must be a list"),
    ("constellation.orbits={altitude_m: 500000.0, inclination_deg: 80.0}",
     "constellation.orbits must be a list"),
    ("constellation.orbits=leo", "constellation.orbits must be a list"),
    ("constellation.orbits=[leo]", "constellation.orbits[0] must be a mapping"),
    ("constellation.orbits[0].colour=red", "unknown key constellation.orbits[0].colour"),
    ("constellation.orbits=[{inclination_deg: 80.0}]",
     "missing key constellation.orbits[0].altitude_m"),
]


def link_refused(snr, rate):
    """The one refusal of a link, at the first pass it prices: its rate is
    0, inf or NaN."""
    return re.compile(rf"error: link: a pass at range [0-9.e+]+ m has SNR {snr} and "
                      rf"rate {rate} bit/s; a pass is priced only at a finite, "
                      r"positive rate\n")


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

    @pytest.mark.parametrize("section, key", [("sim", "horizon_hours"),
                                              ("learner", "batchsize"),
                                              ("learner", "labels_per_group")])
    def test_misspelt_key_exits_2_with_path(self, section, key, scenario_file,
                                            tmp_path, capsys):
        doc = yaml.safe_load(scenario_file.read_text())
        doc[section][key] = 6
        typo = scenario_file.with_name("typo.yaml")
        typo.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(typo), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"error: unknown key {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("compute", "cycles_per_bit", -5.0),
        ("compute", "cpu_hz", 0.0),
        ("sim", "coarse_step_s", 60.0),
        ("sim", "coarse_step_s", 0.0),
    ])
    def test_bad_setting_exits_2_with_path(self, section, key, value,
                                           scenario_file, tmp_path, capsys):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["compute"] = {"cycles_per_bit": 20.0, "cpu_hz": 1e9}
        doc[section][key] = value
        bad = scenario_file.with_name("bad.yaml")
        bad.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"error: {section}.{key} must " in err

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("compute, message", [
        ({"train_time_s": 30.0, "cycles_per_bit": 2e4, "cpu_hz": 1e6},
         "compute.train_time_s and compute.cycles_per_bit are two training-time "
         "models; give one"),
        ({"train_time_s": 30.0, "cpu_hz": 1e6},
         "compute.train_time_s and compute.cpu_hz are two training-time models; "
         "give one"),
        ({"cpu_hz": 1e6},
         "either compute.train_time_s or compute.{cycles_per_bit, cpu_hz} "
         "must be given"),
    ], ids=["both-models", "time-and-cpu", "cpu-only"])
    def test_one_training_time_model(self, compute, message, command,
                                     scenario_file, tmp_path, capsys):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["compute"] = compute
        bad = scenario_file.with_name("compute.yaml")
        bad.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"error: {message}" in capsys.readouterr().err

    def test_too_few_samples_for_altitude_group_exits_2(self, scenario_file,
                                                        tmp_path, capsys):
        doc = yaml.safe_load(scenario_file.read_text())
        doc["constellation"]["orbits"][0]["satellite_count"] = 5
        doc["learner"]["samples_per_class"] = 3
        few = scenario_file.with_name("few.yaml")
        few.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(few),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert ("error: learner.samples_per_class (3) must be at least the "
                "largest altitude group (5 satellites)") in err
        doc["learner"]["samples_per_class"] = 5
        few.write_text(yaml.safe_dump(doc))
        assert main(["plan", "--scenario", str(few),
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_label_split_checked_at_load(self, command, tmp_path, capsys):
        # the bundled constellation has two altitude groups
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        doc["learner"]["classes"] = 3
        bad = tmp_path / "labels.yaml"
        bad.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert ("error: learner.classes (3) must be a multiple of the number of "
                "altitude groups (2)") in capsys.readouterr().err

    def test_commands_accept_the_same_label_splits(self, tmp_path, capsys):
        # every command deals learner.classes // groups labels to each
        # altitude group, so plan refuses exactly what run and compare refuse
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        orbits = doc["constellation"]["orbits"]
        one = tmp_path / "one.yaml"
        doc["constellation"]["orbits"] = orbits[:1]
        one.write_text(yaml.safe_dump(doc))
        for command in ("plan", "run"):
            assert main([command, "--scenario", str(one),
                         "--out", str(tmp_path / command)]) == 0
        three = tmp_path / "three.yaml"
        doc["constellation"]["orbits"] = orbits + [dict(orbits[0], altitude_m=1200e3)]
        three.write_text(yaml.safe_dump(doc))
        capsys.readouterr()
        errors = []
        for command in ("plan", "run", "compare"):
            out = tmp_path / f"three_{command}"
            assert main([command, "--scenario", str(three), "--out", str(out)]) == 2
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors == ["error: learner.classes (10) must be a multiple of the number "
                          "of altitude groups (3)\n"] * 3

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("constellation", ["one orbit", "empty"])
    @pytest.mark.parametrize("key, value, least", [
        ("classes", 1, 2),
        ("feature_dim", 0, 1),
        ("samples_per_class", 0, 1),
        ("test_samples_per_class", 0, 1),
    ])
    def test_task_size_exits_2_with_path(self, key, value, least, constellation,
                                         command, scenario_file, tmp_path, capsys):
        doc = yaml.safe_load(scenario_file.read_text())
        if constellation == "empty":
            doc["constellation"]["orbits"] = []
        doc["learner"][key] = value
        bad = scenario_file.with_name("size.yaml")
        bad.write_text(yaml.safe_dump(doc))
        assert main([command, "--scenario", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"error: learner.{key} must be at least {least}" in err

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("key, literal, expected", [
        ("sim.horizon_s", "abc", "float"),
        ("sim.eval_period_s", "1e-9", "float"),  # a string to YAML 1.1
        ("learner.batch_size", "2.5", "int"),
        ("learner.classes", "true", "int"),
        ("sim.seed", "1.5", "int"),
        ("scheduler.policy", "3", "str"),
        ("sim.max_concurrent_links", "1.5", "int | null"),
        ("sim.model_bits", "2.0e+5", "int | null"),
        ("constellation.orbits[0].altitude_m", "high", "float"),
        ("constellation.orbits[0].satellite_count", "false", "int"),
    ])
    def test_value_type_exits_2_with_path(self, key, literal, expected, command,
                                          tmp_path, capsys):
        # the bundled scenario, with one value of the wrong type
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        section, *_, field = key.split(".")
        target = doc[section] if section != "constellation" else (
            doc["constellation"]["orbits"][0])
        target[field] = yaml.safe_load(literal)
        bad = tmp_path / "typed.yaml"
        bad.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"error: {key} must be of type {expected}, got " in err

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("key, value, least", [
        ("sim.model_bits", 0, 1),
        ("learner.hidden", 0, 1),
        ("sim.seed", -3, 0),
        ("--seed", -1, 0),
    ])
    def test_no_silent_default(self, key, value, least, command, scenario_file,
                               tmp_path, capsys):
        # zero or negative values that once fell back to a default or failed
        # only in run
        doc = yaml.safe_load(scenario_file.read_text())
        extra = []
        if key == "--seed":
            extra, key = ["--seed", str(value)], "sim.seed"
        else:
            section, field = key.split(".")
            doc.setdefault(section, {})[field] = value
            if field == "hidden":
                doc["learner"]["kind"] = "mlp"
        bad = scenario_file.with_name("zero.yaml")
        bad.write_text(yaml.safe_dump(doc))
        assert main([command, "--scenario", str(bad),
                     "--out", str(tmp_path / "out"), *extra]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"error: {key} must be at least {least}" in err

    @pytest.mark.parametrize("policy", ["fedsat", "fedsatschedule", "fedavg_sync"])
    def test_link_cap_refused_before_training(self, policy, scenario_file,
                                              tmp_path, capsys, monkeypatch):
        # two satellites on one orbit share every pass, so one link is too few
        calls = []
        monkeypatch.setattr(engine, "local_sgd", lambda *args: calls.append(args))
        doc = yaml.safe_load(scenario_file.read_text())
        doc["constellation"]["orbits"] *= 2
        doc["sim"].update(max_concurrent_links=1, horizon_s=43200.0)
        doc["scheduler"] = {"policy": policy}
        pair = scenario_file.with_name("pair.yaml")
        pair.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(pair),
                     "--out", str(tmp_path / "out")]) == 2
        assert ("concurrent links at t=" in capsys.readouterr().err)
        assert calls == []

    @pytest.mark.parametrize("command", ["plan", "run"])
    @pytest.mark.parametrize("edit, message", BAD_VALUES,
                             ids=[edit for edit, _ in BAD_VALUES])
    def test_bad_value_exits_2_with_path(self, edit, message, command, tmp_path,
                                         capsys):
        # the bundled scenario with one value set, or with one flag given
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        flags = edit.split() if edit.startswith("--") else []
        if not flags:
            key, literal = edit.split("=")
            section, *_, field = key.split(".")
            target = doc["constellation"]["orbits"][0] if "[0]." in key else doc[section]
            target[field] = yaml.safe_load(literal)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        assert main([command, "--scenario", str(bad), "--out", str(out), *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"error: {message}" in err

    @staticmethod
    def link_scenario(tmp_path, **link):
        """The bundled scenario with the given link values."""
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        doc["link"].update(link)
        path = tmp_path / "link.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    @pytest.mark.parametrize("command", ["plan", "run", "compare"])
    def test_zero_rate_link_exits_2(self, command, tmp_path, capsys):
        # at -250 dBm every pass's SNR vanishes next to 1 in double precision,
        # so each exchange would be priced at zero rate
        weak = self.link_scenario(tmp_path, power_dbm=-250.0)
        out = tmp_path / "out"
        assert main([command, "--scenario", str(weak), "--out", str(out)]) == 2
        assert not out.exists()
        assert link_refused("[0-9.e-]+", "0").fullmatch(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["plan", "run", "compare"])
    @pytest.mark.parametrize("link, snr", [
        # the path loss overflows: SNR 0
        ({"carrier_hz": 1e300}, "0"),
        # the noise power times the path loss underflows to 0 ...
        ({"carrier_hz": 1e-300}, "inf"),
        ({"carrier_hz": 1e-154}, "inf"),
        # ... or to a few subnormals, and the SNR overflows
        ({"carrier_hz": 1e-150}, "inf"),
        ({"carrier_hz": 1e-146}, "inf"),
        # the noise power underflows to 0
        ({"noise_temp_k": 1e-320}, "inf"),
        ({"bandwidth_hz": 1e-320}, "inf"),
        # finite dB values whose linear signal power overflows ...
        ({"gain_sat_dbi": 3075.0}, "inf"),
        # ... over an overflowing path loss: inf / inf
        ({"gain_sat_dbi": 3075.0, "carrier_hz": 1e300}, "nan"),
    ], ids=lambda v: ",".join(f"{k}={x!r}" for k, x in v.items())
       if isinstance(v, dict) else v)
    def test_link_beyond_float_range_exits_2(self, link, snr, command, tmp_path,
                                             capsys):
        bad = self.link_scenario(tmp_path, **link)
        out = tmp_path / "out"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert link_refused(snr, snr).fullmatch(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["plan", "run", "compare"])
    @pytest.mark.parametrize("key, value, zero", [
        ("power_dbm", -4000.0, "0 W"),
        # 1e-321 W in dB units, but 0 W once divided by 1000
        ("power_dbm", -3210.0, "0 W"),
        ("gain_sat_dbi", -4000.0, "a gain of 0"),
        ("gain_gs_dbi", -4000.0, "a gain of 0"),
    ])
    def test_db_value_that_underflows_exits_2(self, key, value, zero, command,
                                               tmp_path, capsys):
        bad = self.link_scenario(tmp_path, **{key: value})
        out = tmp_path / "out"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: link.{key} = {value!r} is {zero} in floating point\n")

    @pytest.mark.parametrize("command", ["plan", "run", "compare"])
    def test_smallest_carrier_with_a_finite_snr_runs(self, command, tmp_path):
        # at 1e-145 Hz every pass's SNR is finite, up to about 6e307
        low = self.link_scenario(tmp_path, carrier_hz=1.0e-145)
        assert main([command, "--scenario", str(low), "--out", str(tmp_path / "out")]) == 0

    def test_link_without_passes_loads(self, tmp_path):
        # nothing is priced, so no link is refused
        doc = yaml.safe_load(bundled_scenario_path().read_text())
        doc["constellation"]["orbits"] = []
        doc["link"]["noise_temp_k"] = 1e-320
        empty = tmp_path / "empty.yaml"
        empty.write_text(yaml.safe_dump(doc))
        assert main(["run", "--scenario", str(empty), "--out", str(tmp_path / "out")]) == 0
