import dataclasses
import itertools
import re
from pathlib import Path

import pytest
import yaml

from satfl import bundled_scenario_path
from satfl.cli import main
from satfl.errors import ScenarioError
from satfl.scenario import (
    OrbitConfig,
    Scenario,
    load_scenario,
    scenario_from_dict,
    with_overrides,
)


def minimal_doc():
    return {
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
    }


class TestParsing:
    def test_minimal_document_with_defaults(self):
        s = scenario_from_dict(minimal_doc())
        assert s.satellite_count == 1
        assert s.policy == "fedsat"
        assert s.train_time_s == 30.0
        assert s.horizon_s == 86400.0

    def test_missing_ground_station_section(self):
        doc = minimal_doc()
        del doc["ground_station"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_missing_orbits(self):
        doc = minimal_doc()
        del doc["constellation"]
        with pytest.raises(ScenarioError, match=r"^missing key constellation\.orbits$"):
            scenario_from_dict(doc)
        doc["constellation"] = {"orbits": []}
        assert scenario_from_dict(doc).satellite_count == 0

    def test_missing_power(self):
        doc = minimal_doc()
        del doc["link"]["power_dbm"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_unknown_orbit_key(self):
        doc = minimal_doc()
        doc["constellation"]["orbits"][0]["apogee_km"] = 500
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section, key", [
        ("sim", "horizon_hours"), ("learner", "batchsize"), ("link", "power_dbw"),
        ("ground_station", "altitude_m"), ("compute", "cpu_ghz"),
        ("scheduler", "policies"), ("constellation", "orbit"),
        ("scheduler", "strict_online_budget"), ("link", "power_w"), ("link", "gain_sat"),
        ("learner", "labels_per_group"),
    ])
    def test_unknown_key_names_its_path(self, section, key):
        doc = minimal_doc()
        doc.setdefault(section, {})[key] = 1
        with pytest.raises(ScenarioError, match=f"unknown key {section}.{key}"):
            scenario_from_dict(doc)

    def test_unknown_section_rejected(self):
        doc = minimal_doc()
        doc["simulation"] = {"horizon_s": 3600.0}
        with pytest.raises(ScenarioError, match="simulation"):
            scenario_from_dict(doc)

    def test_non_mapping_section_rejected(self):
        doc = minimal_doc()
        doc["sim"] = [3600.0]
        with pytest.raises(ScenarioError, match="'sim' must be a mapping"):
            scenario_from_dict(doc)

    def test_file_with_optional_fields_loads(self, tmp_path):
        doc = minimal_doc()
        doc["learner"] = {"kind": "mlp", "hidden": 8}
        doc["compute"] = {"cycles_per_bit": 20.0, "cpu_hz": 1e9}
        doc["sim"] = {"model_bits": 1000, "max_concurrent_links": 2}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc))
        s = load_scenario(path)
        assert s == scenario_from_dict(doc)
        assert (s.learner_kind, s.hidden, s.cycles_per_bit, s.cpu_hz) == ("mlp", 8, 20.0, 1e9)
        assert (s.model_bits, s.max_concurrent_links, s.train_time_s) == (1000, 2, None)

    def test_non_mapping_document(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(["not", "a", "mapping"])

    def test_malformed_yaml_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("link: [unclosed\n")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.yaml")


class TestValidation:
    def base(self, **overrides):
        s = scenario_from_dict(minimal_doc())
        return dataclasses.replace(s, **overrides)

    def test_unknown_policy(self):
        with pytest.raises(ScenarioError):
            self.base(policy="round_robin")

    def test_nonpositive_horizon(self):
        with pytest.raises(ScenarioError):
            self.base(horizon_s=0.0)

    def test_nonpositive_eval_period(self):
        with pytest.raises(ScenarioError):
            self.base(eval_period_s=-1.0)

    def test_training_time_unspecified(self):
        with pytest.raises(ScenarioError):
            self.base(train_time_s=None)

    def test_compute_model_substitutes_training_time(self):
        s = self.base(train_time_s=None, cycles_per_bit=10.0, cpu_hz=1e9)
        assert (s.train_time_s, s.cycles_per_bit, s.cpu_hz) == (None, 10.0, 1e9)

    @pytest.mark.parametrize("field", ["cycles_per_bit", "cpu_hz"])
    def test_one_training_time_model(self, field):
        # a Scenario built in Python holds one model, like a scenario file
        with pytest.raises(ScenarioError,
                           match=f"compute.train_time_s and compute.{field} "):
            self.base(**{field: 5.0})

    def test_unknown_learner_kind(self):
        with pytest.raises(ScenarioError):
            self.base(learner_kind="cnn")

    @pytest.mark.parametrize("field, value", [("eta", 2.0), ("batch_size", 0),
                                              ("local_iters", 0)])
    def test_sgd_settings_checked_with_fixed_training_time(self, field, value):
        # local SGD runs under every training-time model, so its settings are
        # checked at load time, not when the first update trains
        with pytest.raises(ScenarioError):
            self.base(**{field: value})

    def test_grid_bound(self):
        # 5 * 10**7 satellite scan points at the 10 s step are allowed, a finer
        # step or one more satellite's worth is not; 10**6 evaluation instants
        scan = re.escape("constellation satellites x sim.horizon_s / sim.coarse_step_s "
                         "must be at most 50,000,000 grid points")
        assert self.base(horizon_s=5e8).horizon_s == 5e8
        with pytest.raises(ScenarioError, match=scan):
            self.base(horizon_s=5e8, coarse_step_s=9.5)
        ten = [OrbitConfig(altitude_m=500e3, inclination_deg=80.0, satellite_count=10)]
        assert self.base(orbits=ten, horizon_s=5e7).satellite_count == 10
        with pytest.raises(ScenarioError, match=scan):
            self.base(orbits=ten, horizon_s=5.04e7)
        assert self.base(eval_period_s=0.1).eval_period_s == 0.1
        with pytest.raises(ScenarioError, match=re.escape(
                "sim.horizon_s / sim.eval_period_s must be at most 1,000,000 grid points")):
            self.base(eval_period_s=0.05)

    def test_task_bounds(self):
        # 2 * 10**7 entries in the learning task's matrices (rows x widest row)
        # and 2 * 10**7 parameters over all satellites; one satellite and 300
        # rows per class by default
        task = re.escape("learner.classes x (learner.samples_per_class + "
                         "learner.test_samples_per_class) x the widest of ")
        logreg = task + re.escape("learner.feature_dim and learner.classes must be at "
                                  "most 20,000,000 matrix entries, got 2e+07")
        assert self.base(feature_dim=6666).feature_dim == 6666
        with pytest.raises(ScenarioError, match=logreg):
            self.base(feature_dim=6667)
        assert self.base(classes=258).classes == 258
        with pytest.raises(ScenarioError, match=task):
            self.base(classes=259)
        assert self.base(learner_kind="mlp", hidden=6666).hidden == 6666
        with pytest.raises(ScenarioError, match=task + re.escape(
                "learner.feature_dim, learner.classes and learner.hidden must")):
            self.base(learner_kind="mlp", hidden=6667)
        small = dict(orbits=[OrbitConfig(altitude_m=500e3, inclination_deg=80.0,
                                          satellite_count=2)],
                     learner_kind="mlp", classes=2, feature_dim=1, samples_per_class=2,
                     test_samples_per_class=1)
        assert self.base(**small, hidden=2_499_999).learner().param_dim == 9_999_998
        with pytest.raises(ScenarioError, match=re.escape(
                "constellation satellites x learner parameters must be at most "
                "20,000,000 parameters, got 2e+07")):
            self.base(**small, hidden=2_500_000)

    def test_spread_not_negative(self):
        # spread 0 is a separable task; a negative spread is not a mirrored one
        assert self.base(spread=0.0).spread == 0.0
        with pytest.raises(ScenarioError, match="learner.spread must be at least 0"):
            self.base(spread=-1.0)

    def test_shell_sized_scenario_builds(self):
        # a 20 x 10 shell over 7 days at the 10 s step: 200 x 60 480 scan points
        shell = [OrbitConfig(altitude_m=550e3, inclination_deg=53.0, raan_deg=18.0 * p,
                             initial_arg_latitude_deg=36.0 * p, satellite_count=10)
                 for p in range(20)]
        s = self.base(orbits=shell, horizon_s=7 * 86400.0)
        assert s.satellite_count * s.horizon_s / s.coarse_step_s == 12_096_000

    def test_concurrency_cap_lower_bound(self):
        with pytest.raises(ScenarioError):
            self.base(max_concurrent_links=0)

    @pytest.mark.parametrize("field, value, key", [
        ("horizon_s", float("nan"), "sim.horizon_s"),
        ("eval_period_s", float("-inf"), "sim.eval_period_s"),
        ("spread", 10**400, "learner.spread"),
        ("hidden", 10**400, "learner.hidden"),
        ("cpu_hz", float("inf"), "compute.cpu_hz"),
        ("orbits", [OrbitConfig(altitude_m=500e3, inclination_deg=float("nan"))],
         "constellation.orbits[0].inclination_deg"),
        ("orbits", [OrbitConfig(altitude_m=500e3, inclination_deg=80.0,
                                satellite_count=10**400)],
         "constellation.orbits[0].satellite_count"),
    ], ids=["nan", "-inf", "int-beyond-float", "int-field-beyond-float", "inf", "orbit",
            "orbit-int-beyond-float"])
    def test_float_fields_must_be_finite(self, field, value, key):
        # a Scenario built in Python meets the same rule as a scenario file
        with pytest.raises(ScenarioError, match=re.escape(f"{key} must be a finite number")):
            self.base(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("horizon_s", "abc", "sim.horizon_s must be of type float, got 'abc'"),
        ("seed", 1.5, "sim.seed must be of type int, got 1.5"),
        ("batch_size", True, "learner.batch_size must be of type int, got True"),
        ("spread", False, "learner.spread must be of type float, got False"),
        ("policy", 3, "scheduler.policy must be of type str, got 3"),
        ("model_bits", 2.0e5, "sim.model_bits must be of type int | null, got 200000.0"),
        ("orbits", [OrbitConfig(altitude_m=500e3, inclination_deg=80.0, satellite_count=True)],
         "constellation.orbits[0].satellite_count must be of type int, got True"),
    ], ids=["str-float", "float-int", "bool-int", "bool-float", "int-str", "float-optional",
            "orbit"])
    def test_field_types_checked(self, field, value, message):
        # a Scenario built in Python meets the same type rule as a scenario file
        with pytest.raises(ScenarioError, match=re.escape(message)):
            self.base(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("gain_sat_dbi", float("nan"), "link.gain_sat_dbi must be a finite number"),
        ("power_dbm", float("inf"), "link.power_dbm must be a finite number"),
        ("model_bits", 0, "sim.model_bits must be at least 1"),
    ])
    def test_replace_checks_the_copy(self, field, value, message):
        # a copy is checked like any Scenario, so no stage sees an unchecked one
        s = load_scenario(bundled_scenario_path())
        with pytest.raises(ScenarioError, match=re.escape(message)):
            dataclasses.replace(s, **{field: value})

    def test_fields_cannot_be_assigned(self):
        s = self.base()
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.horizon_s = float("nan")


class TestBundledScenario:
    def test_loads_and_validates(self):
        s = load_scenario(bundled_scenario_path())
        assert s.satellite_count == 10
        altitudes = sorted({o.altitude_m for o in s.orbits})
        assert altitudes == [500e3, 2000e3]
        assert s.gs_latitude_deg == pytest.approx(53.07)
        assert s.label_split()[1] == 5


class TestOverrides:
    def test_fields_replaced(self):
        s = scenario_from_dict(minimal_doc())
        out = with_overrides(s, seed=7, policy="fedsatschedule",
                             train_time_s=120.0, horizon_s=3600.0)
        assert (out.seed, out.policy) == (7, "fedsatschedule")
        assert (out.train_time_s, out.horizon_s) == (120.0, 3600.0)
        assert s.seed == 1  # original untouched

    def test_training_time_replaces_compute_model(self):
        doc = minimal_doc()
        doc["compute"] = {"cycles_per_bit": 20.0, "cpu_hz": 1e9}
        out = with_overrides(scenario_from_dict(doc), train_time_s=45.0)
        assert (out.train_time_s, out.cycles_per_bit, out.cpu_hz) == (45.0, None, None)

    def test_no_overrides_is_identity(self):
        s = scenario_from_dict(minimal_doc())
        assert with_overrides(s) == s

    def test_invalid_override_rejected(self):
        s = scenario_from_dict(minimal_doc())
        with pytest.raises(ScenarioError):
            with_overrides(s, policy="greedy")


def test_orbit_config_defaults():
    o = OrbitConfig(altitude_m=500e3, inclination_deg=80.0)
    assert o.raan_deg == 0.0
    assert o.satellite_count == 1


def test_satellite_count_sums_over_orbits():
    s = scenario_from_dict(minimal_doc())
    s = dataclasses.replace(
        s,
        orbits=[
            OrbitConfig(500e3, 80.0, satellite_count=3),
            OrbitConfig(2000e3, 80.0, satellite_count=2),
        ],
    )
    assert s.satellite_count == 5


# the rules a Scenario field can declare on its value alone
RULES = ("one_of", "positive", "least", "most")
FIELDS = dataclasses.fields(Scenario)


def key_of(f):
    return f.metadata["key"]


def declared_rules():
    """(field, rule) for every rule the Scenario fields declare, in
    declaration order."""
    return [(f, rule) for f in FIELDS for rule in RULES
            if f.metadata[rule] is not None and f.metadata[rule] is not False]


def breaking(f, rule):
    """A value of f's type that breaks its declared rule, and the message
    that names it."""
    key, bound = key_of(f), f.metadata[rule]
    if rule == "one_of":
        return "none_of_these", f"{key} must be one of {bound}, got 'none_of_these'"
    number = float if f.type.startswith("float") else int
    if rule == "positive":
        return number(0), f"{key} must be strictly positive"
    if rule == "least":
        return number(bound - 1), f"{key} must be at least {bound}"
    return number(2 * bound), f"{key} must be at most {bound}"


def rendered(f, rule):
    """f's declared rule as the README table writes it."""
    bound = f.metadata[rule]
    if rule == "one_of":
        return "one of " + ", ".join(f"`{choice}`" for choice in bound)
    return {"positive": "> 0", "least": f">= {bound}", "most": f"<= {bound}"}[rule]


def bundled_with(values):
    """The bundled scenario document with each dotted key set to its value."""
    doc = yaml.safe_load(bundled_scenario_path().read_text())
    for key, value in values.items():
        section, name = key.split(".")
        doc[section][name] = value
    return doc


def plan_exits_2(doc, tmp_path, capsys):
    """`satfl plan` on doc exits 2 and writes nothing; its stderr."""
    path, out = tmp_path / "scenario.yaml", tmp_path / "out"
    path.write_text(yaml.safe_dump(doc))
    assert main(["plan", "--scenario", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


class TestDeclarations:
    """Each Scenario field declares its YAML key and the rules on its value
    alone; these tests read the declarations, so a new field is covered."""

    @pytest.mark.parametrize("f", FIELDS, ids=key_of)
    def test_wrong_type_exits_2_naming_its_key(self, f, tmp_path, capsys):
        value = 3 if f.type == "str" else "a string"
        err = plan_exits_2(bundled_with({key_of(f): value}), tmp_path, capsys)
        assert err.startswith(f"error: {key_of(f)} must be ")

    @pytest.mark.parametrize("f, rule", declared_rules(),
                             ids=[f"{key_of(f)}-{rule}" for f, rule in declared_rules()])
    def test_declared_rule_gives_its_message(self, f, rule, tmp_path, capsys):
        value, message = breaking(f, rule)
        assert plan_exits_2(bundled_with({key_of(f): value}), tmp_path, capsys) == (
            f"error: {message}\n")

    def test_two_bad_values_name_the_first_declared(self):
        # the rules are checked in declaration order, whatever their kind
        pairs = [(a, b) for a, b in itertools.combinations(declared_rules(), 2)
                 if a[0] is not b[0]]
        assert len(pairs) > 100
        for (fa, ra), (fb, rb) in pairs:
            (va, message), (vb, _) = breaking(fa, ra), breaking(fb, rb)
            with pytest.raises(ScenarioError) as exc:
                scenario_from_dict(bundled_with({key_of(fa): va, key_of(fb): vb}))
            assert str(exc.value) == message

    def test_readme_table_lists_the_declared_keys(self):
        lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| Key | Type | Default | Rule |") + 2
        rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start:]))
        cells = [[c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", row)[1:-1]]
                 for row in rows]
        assert [row[0] for row in cells] == [f"`{key_of(f)}`" for f in FIELDS]
        for f, (_, kind, default, rule) in zip(FIELDS, cells):
            assert kind == f.type.partition("[")[0].replace("None", "null"), key_of(f)
            assert default == ("required" if f.default is dataclasses.MISSING
                               else f"`{'null' if f.default is None else f.default}`")
            declared = ", ".join(rendered(f, r) for g, r in declared_rules() if g is f)
            if declared:
                assert rule.startswith(declared), key_of(f)
            else:
                assert not re.match(r"(>|<|one of)", rule), key_of(f)
