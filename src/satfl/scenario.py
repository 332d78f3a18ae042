"""Scenario files: parsing and validation.

Scenario files are YAML with sections constellation, ground_station, link,
learner, compute, scheduler and sim. Values keep their boundary units here
(degrees, dBm, dBi); domain objects in SI/linear units are built on demand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields, replace

import yaml

from .errors import ScenarioError
from .learning import ComputeProfile, make_learner
from .link import LinkBudget, db_to_linear
from .orbital import GroundStation, OrbitSpec

POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
# libyaml's safe loader builds the same documents as the pure-Python one,
# several times faster; PyYAML ships without it when libyaml is absent
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# grid bounds: `satfl plan` on the bundled 10 satellites peaks at about
# 0.93 GB at MAX_SCAN_POINTS satellite scan steps, and `satfl run` at about
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


@dataclass(frozen=True)
class Scenario:
    """A checked scenario: construction, `dataclasses.replace` included,
    raises a ScenarioError naming the key of the first bad value."""

    orbits: list[OrbitConfig]
    gs_latitude_deg: float
    gs_longitude_deg: float
    gs_min_elevation_deg: float
    power_dbm: float
    gain_sat_dbi: float
    gain_gs_dbi: float
    bandwidth_hz: float
    noise_temp_k: float
    carrier_hz: float
    learner_kind: str = "logreg"
    classes: int = 10
    feature_dim: int = 8
    hidden: int = 16
    eta: float = 0.1
    batch_size: int = 10
    local_iters: int = 1
    samples_per_class: int = 200
    test_samples_per_class: int = 100
    spread: float = 1.0
    train_time_s: float | None = 30.0
    cycles_per_bit: float | None = None
    cpu_hz: float | None = None
    policy: str = "fedsat"
    horizon_s: float = 86400.0
    eval_period_s: float = 600.0
    seed: int = 1
    coarse_step_s: float = 10.0
    model_bits: int | None = None
    max_concurrent_links: int | None = None

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
        return LinkBudget.from_db_units(
            power_dbm=self.power_dbm,
            gain_sat_dbi=self.gain_sat_dbi,
            gain_gs_dbi=self.gain_gs_dbi,
            bandwidth_hz=self.bandwidth_hz,
            noise_temp_k=self.noise_temp_k,
            carrier_hz=self.carrier_hz,
        )

    def learner(self):
        return make_learner(self.learner_kind, self.classes, self.feature_dim, self.hidden)

    def compute_profile(self) -> ComputeProfile:
        return ComputeProfile(
            eta=self.eta,
            batch_size=self.batch_size,
            local_iters=self.local_iters,
            cycles_per_bit=self.cycles_per_bit,
            cpu_hz=self.cpu_hz,
        )

    @property
    def satellite_count(self) -> int:
        return sum(o.satellite_count for o in self.orbits)

    def __post_init__(self) -> None:
        # types and finiteness first: the checks below compare the values
        values = [(_KEYS[f.name], getattr(self, f.name), f.type)
                  for f in fields(self) if f.name != "orbits"]
        values += [(f"constellation.orbits[{i}].{f.name}", getattr(o, f.name), f.type)
                   for i, o in enumerate(self.orbits) for f in fields(o)]
        for key, value, annotation in values:
            _check_value(key, value, annotation)
        if self.policy not in POLICIES:
            raise ScenarioError(
                f"scheduler policy must be one of {POLICIES}, got {self.policy!r}"
            )
        for key in ("sim.horizon_s", "sim.eval_period_s", "compute.train_time_s",
                    "compute.cycles_per_bit", "compute.cpu_hz"):
            value = getattr(self, key.partition(".")[2])
            if value is not None and value <= 0:
                raise ScenarioError(f"{key} must be strictly positive")
        for field in ("cycles_per_bit", "cpu_hz"):
            if self.train_time_s is not None and getattr(self, field) is not None:
                raise ScenarioError(f"compute.train_time_s and {_KEYS[field]} are two "
                                    "training-time models; give one")
        if self.train_time_s is None and (
            self.cycles_per_bit is None or self.cpu_hz is None
        ):
            raise ScenarioError(
                "either compute.train_time_s or compute.{cycles_per_bit, cpu_hz} "
                "must be given"
            )
        if not 0 < self.coarse_step_s <= 10.0:
            raise ScenarioError("sim.coarse_step_s must lie in (0, 10] seconds")
        if self.learner_kind not in ("logreg", "mlp"):
            raise ScenarioError(f"unknown learner.kind {self.learner_kind!r}")
        for key, least in (("learner.classes", 2), ("learner.feature_dim", 1),
                           ("learner.samples_per_class", 1), ("learner.hidden", 1),
                           ("learner.test_samples_per_class", 1), ("learner.spread", 0),
                           ("sim.seed", 0), ("sim.model_bits", 1),
                           ("sim.max_concurrent_links", 1)):
            value = getattr(self, key.partition(".")[2])
            if value is not None and value < least:
                raise ScenarioError(f"{key} must be at least {least}")
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
        for key in ("power_dbm", "gain_sat_dbi", "gain_gs_dbi"):
            _named(f"link.{key}", db_to_linear, getattr(self, key))
        for i, o in enumerate(self.orbits):
            _named(f"constellation.orbits[{i}]", o.spec)
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


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


# YAML section -> key -> Scenario field. Keys a document leaves out take the
# field's default; keys not listed here are rejected.
_FIELDS = {
    "ground_station": {
        "latitude_deg": "gs_latitude_deg",
        "longitude_deg": "gs_longitude_deg",
        "min_elevation_deg": "gs_min_elevation_deg",
    },
    "link": _same("power_dbm", "gain_sat_dbi", "gain_gs_dbi", "bandwidth_hz",
                  "noise_temp_k", "carrier_hz"),
    "learner": {"kind": "learner_kind", **_same(
        "classes", "feature_dim", "hidden", "eta", "batch_size", "local_iters",
        "samples_per_class", "test_samples_per_class", "spread",
    )},
    "compute": _same("train_time_s", "cycles_per_bit", "cpu_hz"),
    "scheduler": _same("policy"),
    "sim": _same("horizon_s", "eval_period_s", "seed", "coarse_step_s",
                 "model_bits", "max_concurrent_links"),
}
_KEYS = {field: f"{name}.{key}" for name, keys in _FIELDS.items()
         for key, field in keys.items()}
_REQUIRED = {f.name for f in fields(Scenario) if f.default is MISSING}
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


def _section(doc: dict, name: str) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ScenarioError(f"section {name!r} must be a mapping")
    return section


def _known(path: str, mapping: dict, keys) -> None:
    for key in mapping:
        if key not in keys:
            raise ScenarioError(f"unknown key {path}.{key}")


def _orbit(path: str, doc) -> OrbitConfig:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} must be a mapping")
    _known(path, doc, _ORBIT_KEYS)
    for key, default in _ORBIT_KEYS.items():
        if default is MISSING and key not in doc:
            raise ScenarioError(f"missing key {path}.{key}")
    return OrbitConfig(**doc)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    for name in doc:
        if name != "constellation" and name not in _FIELDS:
            raise ScenarioError(f"unknown section {name!r}")
    con = _section(doc, "constellation")
    _known("constellation", con, ("orbits",))
    orbits = con.get("orbits", [])
    if not isinstance(orbits, list):
        raise ScenarioError("constellation.orbits must be a list")

    values = {"orbits": [_orbit(f"constellation.orbits[{i}]", o)
                         for i, o in enumerate(orbits)]}
    for name, keys in _FIELDS.items():
        section = _section(doc, name)
        _known(name, section, keys)
        for key, value in section.items():
            values[keys[key]] = value
    if "cycles_per_bit" in values or "cpu_hz" in values:
        # a compute model replaces the default training time
        values.setdefault("train_time_s", None)
    for field, key in _KEYS.items():
        if field in _REQUIRED and field not in values:
            raise ScenarioError(f"missing key {key}")
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
