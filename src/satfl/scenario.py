"""Scenario files: parsing and validation.

Scenario files are YAML with sections constellation, ground_station, link,
learner, compute, scheduler and sim. Values keep their boundary units here
(degrees, dBm, dBi); domain objects in SI/linear units are built on demand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

import yaml

from .errors import ScenarioError
from .learning import LEARNER_KINDS, ComputeProfile, make_learner
from .link import LinkBudget, db_to_linear, dbm_to_watts
from .orbital import GroundStation, OrbitSpec

POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
# libyaml's safe loader builds the same documents as the pure-Python one,
# several times faster; PyYAML ships without it when libyaml is absent
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# grid bounds: `satfl plan` on one or ten bundled orbits peaks at about
# 50 MB at MAX_SCAN_POINTS satellite scan steps, and `satfl run` at about
# 0.34 GB at MAX_EVAL_POINTS evaluation instants; task bounds: `satfl run`
# on one or ten of the bundled orbits peaks at 0.3-0.95 GB at
# MAX_TASK_POINTS task matrix entries or MAX_MODEL_POINTS satellite
# parameters
MAX_SCAN_POINTS = 5 * 10**7
MAX_EVAL_POINTS = 10**6
MAX_TASK_POINTS = 2 * 10**7
MAX_MODEL_POINTS = 2 * 10**7


@dataclass(frozen=True)
class OrbitConfig:
    altitude_m: float
    inclination_deg: float
    raan_deg: float = 0.0
    initial_arg_latitude_deg: float = 0.0
    satellite_count: int = 1

    def spec(self) -> OrbitSpec:
        return OrbitSpec(
            altitude_m=self.altitude_m,
            inclination_rad=math.radians(self.inclination_deg),
            raan_rad=math.radians(self.raan_deg),
            initial_arg_latitude_rad=math.radians(self.initial_arg_latitude_deg),
            satellite_count=self.satellite_count,
        )


def _key(key: str, default=MISSING, *, positive=False, least=None, most=None,
         one_of=None):
    """A Scenario field read from the dotted YAML key, with the rules on its
    value alone: strictly positive, at least least, at most most, one of
    one_of. An unset optional value (None) meets every rule."""
    return field(default=default, metadata=dict(
        key=key, positive=positive, least=least, most=most, one_of=one_of))


@dataclass(frozen=True)
class Scenario:
    """A checked scenario: construction, `dataclasses.replace` included,
    raises a ScenarioError naming the key of the first bad value."""

    orbits: list[OrbitConfig] = _key("constellation.orbits")
    gs_latitude_deg: float = _key("ground_station.latitude_deg")
    gs_longitude_deg: float = _key("ground_station.longitude_deg")
    gs_min_elevation_deg: float = _key("ground_station.min_elevation_deg")
    power_dbm: float = _key("link.power_dbm")
    gain_sat_dbi: float = _key("link.gain_sat_dbi")
    gain_gs_dbi: float = _key("link.gain_gs_dbi")
    bandwidth_hz: float = _key("link.bandwidth_hz")
    noise_temp_k: float = _key("link.noise_temp_k")
    carrier_hz: float = _key("link.carrier_hz")
    learner_kind: str = _key("learner.kind", "logreg", one_of=LEARNER_KINDS)
    classes: int = _key("learner.classes", 10, least=2)
    feature_dim: int = _key("learner.feature_dim", 8, least=1)
    hidden: int = _key("learner.hidden", 16, least=1)
    eta: float = _key("learner.eta", 0.1)
    batch_size: int = _key("learner.batch_size", 10)
    local_iters: int = _key("learner.local_iters", 1)
    samples_per_class: int = _key("learner.samples_per_class", 200, least=1)
    test_samples_per_class: int = _key("learner.test_samples_per_class", 100, least=1)
    spread: float = _key("learner.spread", 1.0, least=0)
    train_time_s: float | None = _key("compute.train_time_s", 30.0, positive=True)
    cycles_per_bit: float | None = _key("compute.cycles_per_bit", None, positive=True)
    cpu_hz: float | None = _key("compute.cpu_hz", None, positive=True)
    policy: str = _key("scheduler.policy", "fedsat", one_of=POLICIES)
    horizon_s: float = _key("sim.horizon_s", 86400.0, positive=True)
    eval_period_s: float = _key("sim.eval_period_s", 600.0, positive=True)
    seed: int = _key("sim.seed", 1, least=0)
    coarse_step_s: float = _key("sim.coarse_step_s", 10.0, positive=True, most=10)
    model_bits: int | None = _key("sim.model_bits", None, least=1)
    max_concurrent_links: int | None = _key("sim.max_concurrent_links", None, least=1)

    # ---- domain object factories -------------------------------------

    def orbit_specs(self) -> list[OrbitSpec]:
        return [o.spec() for o in self.orbits]

    def ground_station(self) -> GroundStation:
        return GroundStation(
            latitude_rad=math.radians(self.gs_latitude_deg),
            longitude_rad=math.radians(self.gs_longitude_deg),
            min_elevation_rad=math.radians(self.gs_min_elevation_deg),
        )

    def link_budget(self) -> LinkBudget:
        return LinkBudget(dbm_to_watts(self.power_dbm), db_to_linear(self.gain_sat_dbi),
                          db_to_linear(self.gain_gs_dbi), self.bandwidth_hz,
                          self.noise_temp_k, self.carrier_hz)

    def learner(self):
        return make_learner(self.learner_kind, self.classes, self.feature_dim, self.hidden)

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(
            eta=self.eta,
            batch_size=self.batch_size,
            local_iters=self.local_iters,
        )

    @property
    def satellite_count(self) -> int:
        return sum(o.satellite_count for o in self.orbits)

    def __post_init__(self) -> None:
        # types and finiteness first: the rules below compare the values
        own = [f for f in fields(self) if f.name != "orbits"]
        values = [(f.metadata["key"], getattr(self, f.name), f.type) for f in own]
        values += [(f"{_KEY_OF['orbits']}[{i}].{f.name}", getattr(o, f.name), f.type)
                   for i, o in enumerate(self.orbits) for f in fields(o)]
        for key, value, annotation in values:
            _check_value(key, value, annotation)
        for f in own:
            _check_rules(getattr(self, f.name), f.metadata)
        for name in ("cycles_per_bit", "cpu_hz"):
            if self.train_time_s is not None and getattr(self, name) is not None:
                raise ScenarioError(f"compute.train_time_s and {_KEY_OF[name]} are two "
                                    "training-time models; give one")
        if self.train_time_s is None and (
            self.cycles_per_bit is None or self.cpu_hz is None
        ):
            raise ScenarioError(
                "either compute.train_time_s or compute.{cycles_per_bit, cpu_hz} "
                "must be given"
            )
        # the learning task's matrices: its rows by their widest row
        mlp = self.learner_kind == "mlp"
        widest = ("learner.feature_dim, learner.classes and learner.hidden" if mlp
                  else "learner.feature_dim and learner.classes")
        for key, points, most, unit in (
            ("constellation satellites x sim.horizon_s / sim.coarse_step_s",
             max(self.satellite_count, 1) * self.horizon_s / self.coarse_step_s,
             MAX_SCAN_POINTS, "grid points"),
            ("sim.horizon_s / sim.eval_period_s", self.horizon_s / self.eval_period_s,
             MAX_EVAL_POINTS, "grid points"),
            ("learner.classes x (learner.samples_per_class + "
             f"learner.test_samples_per_class) x the widest of {widest}",
             self.classes * (self.samples_per_class + self.test_samples_per_class)
             * max(self.feature_dim, self.classes, self.hidden * mlp),
             MAX_TASK_POINTS, "matrix entries"),
            ("constellation satellites x learner parameters",
             max(self.satellite_count, 1) * self.learner().param_dim,
             MAX_MODEL_POINTS, "parameters"),
        ):
            if points > most:
                raise ScenarioError(f"{key} must be at most {most:,} {unit}, "
                                    f"got {points:.3g}")
        # the link's linear values: each must be a positive float
        for name, linear, zero in (("power_dbm", dbm_to_watts, "0 W"),
                                   ("gain_sat_dbi", db_to_linear, "a gain of 0"),
                                   ("gain_gs_dbi", db_to_linear, "a gain of 0")):
            if _named(_KEY_OF[name], linear, getattr(self, name)) == 0.0:
                raise ScenarioError(f"{_KEY_OF[name]} = {getattr(self, name)!r} is "
                                    f"{zero} in floating point")
        for i, o in enumerate(self.orbits):
            _named(f"{_KEY_OF['orbits']}[{i}]", o.spec)
        for section, build in (("ground_station", self.ground_station),
                               ("link", self.link_budget), ("learner", self.compute_profile)):
            _named(section, build)
        # each label is dealt to every satellite of one altitude group
        groups, _ = self.label_split()
        largest = max(map(len, groups), default=0)
        if self.samples_per_class < largest:
            raise ScenarioError(
                f"learner.samples_per_class ({self.samples_per_class}) must be at "
                f"least the largest altitude group ({largest} satellites)"
            )

    def label_split(self) -> tuple[list[list[int]], int]:
        """Satellite ids grouped by orbit altitude, ascending, and the number
        of labels each group holds, learner.classes // groups; group g holds
        labels [g*lpg, (g+1)*lpg), so every label goes to exactly one group.

        Raises when the altitude groups do not divide learner.classes.
        """
        by_alt: dict[float, list[int]] = {}
        k = 0
        for o in self.orbits:
            by_alt.setdefault(o.altitude_m, []).extend(range(k, k + o.satellite_count))
            k += o.satellite_count
        groups = [by_alt[a] for a in sorted(by_alt)]
        if not groups:
            return [], 0
        if self.classes % len(groups):
            raise ScenarioError(f"learner.classes ({self.classes}) must be a multiple of "
                                f"the number of altitude groups ({len(groups)})")
        return groups, self.classes // len(groups)


def _named(key: str, fn, *args):
    """fn(*args), a ValueError raised as a ScenarioError naming the scenario
    key or section it came from, and a float overflow as that key being out
    of range."""
    try:
        return fn(*args)
    except OverflowError as exc:
        raise ScenarioError(f"{key} is out of range") from exc
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


# each field's dotted YAML key, and the field each declared key sets; a key
# a document leaves out takes its field's default, and one not declared is
# rejected
_KEY_OF = {f.name: f.metadata["key"] for f in fields(Scenario)}
_KEYS = {key: name for name, key in _KEY_OF.items()}
_SECTIONS = {key.partition(".")[0] for key in _KEYS}
_REQUIRED = [f.name for f in fields(Scenario) if f.default is MISSING]
_ORBIT_KEYS = {f.name: f.default for f in fields(OrbitConfig)}
# the Python types each field annotation accepts; annotations are strings
# under postponed evaluation (e.g. "int | None")
_ACCEPTS = {"int": int, "float": (int, float), "str": str}


def _check_value(key: str, value, annotation: str) -> None:
    """Refuse a value whose type does not match its field annotation (a bool,
    an int to Python, matches none), and a number that is not finite or is
    an int too large for a float."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional:
        return
    if not isinstance(value, _ACCEPTS[kind]) or isinstance(value, bool):
        raise ScenarioError(f"{key} must be of type {annotation.replace('None', 'null')}, "
                            f"got {value!r}")
    # abs() <= max is false for nan, inf and ints beyond the float range
    if kind != "str" and not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{key} must be a finite number, got {value!r}")


def _check_rules(value, rules) -> None:
    """Refuse a set value that breaks a rule its field declares."""
    if value is None:
        return
    key, one_of, least, most = rules["key"], rules["one_of"], rules["least"], rules["most"]
    if one_of is not None and value not in one_of:
        raise ScenarioError(f"{key} must be one of {one_of}, got {value!r}")
    if rules["positive"] and value <= 0:
        raise ScenarioError(f"{key} must be strictly positive")
    if least is not None and value < least:
        raise ScenarioError(f"{key} must be at least {least}")
    if most is not None and value > most:
        raise ScenarioError(f"{key} must be at most {most}")


def _orbit(path: str, doc) -> OrbitConfig:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} must be a mapping")
    for key in doc:
        if key not in _ORBIT_KEYS:
            raise ScenarioError(f"unknown key {path}.{key}")
    for key, default in _ORBIT_KEYS.items():
        if default is MISSING and key not in doc:
            raise ScenarioError(f"missing key {path}.{key}")
    return OrbitConfig(**doc)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    values = {}
    for name, section in doc.items():
        if name not in _SECTIONS:
            raise ScenarioError(f"unknown section {name!r}")
        if not isinstance(section, dict):
            raise ScenarioError(f"section {name!r} must be a mapping")
        for key, value in section.items():
            if f"{name}.{key}" not in _KEYS:
                raise ScenarioError(f"unknown key {name}.{key}")
            values[_KEYS[f"{name}.{key}"]] = value
    for name in _REQUIRED:
        if name not in values:
            raise ScenarioError(f"missing key {_KEY_OF[name]}")
    if not isinstance(values["orbits"], list):
        raise ScenarioError(f"{_KEY_OF['orbits']} must be a list")
    values["orbits"] = [_orbit(f"{_KEY_OF['orbits']}[{i}]", o)
                        for i, o in enumerate(values["orbits"])]
    if "cycles_per_bit" in values or "cpu_hz" in values:
        # a compute model replaces the default training time
        values.setdefault("train_time_s", None)
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario_from_dict(doc)


def with_overrides(
    scenario: Scenario,
    seed: int | None = None,
    policy: str | None = None,
    train_time_s: float | None = None,
    horizon_s: float | None = None,
) -> Scenario:
    """Copy of a scenario with CLI-style overrides applied, checked like
    any Scenario.

    A training time replaces the scenario's training-time model, fixed or
    compute-derived."""
    updates = {key: value for key, value in (
        ("seed", seed), ("policy", policy), ("train_time_s", train_time_s),
        ("horizon_s", horizon_s),
    ) if value is not None}
    if train_time_s is not None:
        updates.update(cycles_per_bit=None, cpu_hz=None)
    return replace(scenario, **updates)
