"""Scenario files: parsing, validation, serialization.

Scenario files are YAML with sections constellation, ground_station, link,
learner, compute, scheduler and sim. Values keep their boundary units here
(degrees, dBm, dBi); domain objects in SI/linear units are built on demand.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import yaml

from .errors import ScenarioError
from .learning import ComputeProfile
from .link import LinkBudget, linear_to_db, watts_to_dbm
from .orbital import GroundStation, OrbitSpec

POLICIES = ("fedsat", "fedsatschedule", "fedavg_sync")
# libyaml's safe loader builds the same documents as the pure-Python one,
# several times faster; PyYAML ships without it when libyaml is absent
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class OrbitConfig:
    altitude_m: float
    inclination_deg: float
    raan_deg: float = 0.0
    initial_arg_latitude_deg: float = 0.0
    satellite_count: int = 1


@dataclass
class Scenario:
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
    labels_per_group: int | None = None
    train_time_s: float | None = 30.0
    cycles_per_bit: float | None = None
    cpu_hz: float | None = None
    policy: str = "fedsat"
    strict_online_budget: bool = True
    horizon_s: float = 86400.0
    eval_period_s: float = 600.0
    seed: int = 1
    coarse_step_s: float = 10.0
    model_bits: int | None = None
    max_concurrent_links: int | None = None

    # ---- domain object factories -------------------------------------

    def orbit_specs(self) -> list[OrbitSpec]:
        return [
            OrbitSpec(
                altitude_m=o.altitude_m,
                inclination_rad=math.radians(o.inclination_deg),
                raan_rad=math.radians(o.raan_deg),
                initial_arg_latitude_rad=math.radians(o.initial_arg_latitude_deg),
                satellite_count=o.satellite_count,
            )
            for o in self.orbits
        ]

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

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ScenarioError(
                f"scheduler policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.horizon_s <= 0:
            raise ScenarioError("sim.horizon_s must be strictly positive")
        if self.eval_period_s <= 0:
            raise ScenarioError("sim.eval_period_s must be strictly positive")
        if self.train_time_s is None and (
            self.cycles_per_bit is None or self.cpu_hz is None
        ):
            raise ScenarioError(
                "either compute.train_time_s or compute.{cycles_per_bit, cpu_hz} "
                "must be given"
            )
        if self.train_time_s is not None and self.train_time_s <= 0:
            raise ScenarioError("compute.train_time_s must be strictly positive")
        if self.learner_kind not in ("logreg", "mlp"):
            raise ScenarioError(f"unknown learner.kind {self.learner_kind!r}")
        if self.max_concurrent_links is not None and self.max_concurrent_links < 1:
            raise ScenarioError("sim.max_concurrent_links must be >= 1 when set")
        try:
            self.orbit_specs()
            self.ground_station()
            self.link_budget()
            if self.train_time_s is None:
                self.compute_profile()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc


_MISSING = object()


def _get(section: dict, name: str, key: str, default=_MISSING):
    if key in section:
        return section[key]
    if default is not _MISSING:
        return default
    raise ScenarioError(f"missing key {key!r} in section {name!r}")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must contain a mapping at top level")
    con = doc.get("constellation", {})
    orbits = []
    for i, o in enumerate(con.get("orbits", [])):
        try:
            orbits.append(OrbitConfig(**o))
        except TypeError as exc:
            raise ScenarioError(f"constellation.orbits[{i}]: {exc}") from exc
    gs = doc.get("ground_station")
    if gs is None:
        raise ScenarioError("missing section 'ground_station'")
    link = doc.get("link")
    if link is None:
        raise ScenarioError("missing section 'link'")

    # accept linear-unit alternatives at the boundary
    if "power_dbm" in link:
        power_dbm = link["power_dbm"]
    elif "power_w" in link:
        power_dbm = watts_to_dbm(link["power_w"])
    else:
        raise ScenarioError("link section needs power_dbm or power_w")

    def gain(which):
        if f"gain_{which}_dbi" in link:
            return link[f"gain_{which}_dbi"]
        if f"gain_{which}" in link:
            return linear_to_db(link[f"gain_{which}"])
        raise ScenarioError(f"link section needs gain_{which}_dbi or gain_{which}")

    learner = doc.get("learner", {})
    compute = doc.get("compute", {})
    scheduler = doc.get("scheduler", {})
    sim = doc.get("sim", {})
    try:
        scenario = Scenario(
            orbits=orbits,
            gs_latitude_deg=_get(gs, "ground_station", "latitude_deg"),
            gs_longitude_deg=_get(gs, "ground_station", "longitude_deg"),
            gs_min_elevation_deg=_get(gs, "ground_station", "min_elevation_deg"),
            power_dbm=power_dbm,
            gain_sat_dbi=gain("sat"),
            gain_gs_dbi=gain("gs"),
            bandwidth_hz=_get(link, "link", "bandwidth_hz"),
            noise_temp_k=_get(link, "link", "noise_temp_k"),
            carrier_hz=_get(link, "link", "carrier_hz"),
            learner_kind=learner.get("kind", "logreg"),
            classes=learner.get("classes", 10),
            feature_dim=learner.get("feature_dim", 8),
            hidden=learner.get("hidden", 16),
            eta=learner.get("eta", 0.1),
            batch_size=learner.get("batch_size", 10),
            local_iters=learner.get("local_iters", 1),
            samples_per_class=learner.get("samples_per_class", 200),
            test_samples_per_class=learner.get("test_samples_per_class", 100),
            spread=learner.get("spread", 1.0),
            labels_per_group=learner.get("labels_per_group"),
            train_time_s=compute.get("train_time_s", 30.0)
            if "cycles_per_bit" not in compute else compute.get("train_time_s"),
            cycles_per_bit=compute.get("cycles_per_bit"),
            cpu_hz=compute.get("cpu_hz"),
            policy=scheduler.get("policy", "fedsat"),
            strict_online_budget=scheduler.get("strict_online_budget", True),
            horizon_s=sim.get("horizon_s", 86400.0),
            eval_period_s=sim.get("eval_period_s", 600.0),
            seed=sim.get("seed", 1),
            coarse_step_s=sim.get("coarse_step_s", 10.0),
            model_bits=sim.get("model_bits"),
            max_concurrent_links=sim.get("max_concurrent_links"),
        )
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc
    scenario.validate()
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    doc = {
        "constellation": {"orbits": [asdict(o) for o in s.orbits]},
        "ground_station": {
            "latitude_deg": s.gs_latitude_deg,
            "longitude_deg": s.gs_longitude_deg,
            "min_elevation_deg": s.gs_min_elevation_deg,
        },
        "link": {
            "power_dbm": s.power_dbm,
            "gain_sat_dbi": s.gain_sat_dbi,
            "gain_gs_dbi": s.gain_gs_dbi,
            "bandwidth_hz": s.bandwidth_hz,
            "noise_temp_k": s.noise_temp_k,
            "carrier_hz": s.carrier_hz,
        },
        "learner": {
            "kind": s.learner_kind,
            "classes": s.classes,
            "feature_dim": s.feature_dim,
            "hidden": s.hidden,
            "eta": s.eta,
            "batch_size": s.batch_size,
            "local_iters": s.local_iters,
            "samples_per_class": s.samples_per_class,
            "test_samples_per_class": s.test_samples_per_class,
            "spread": s.spread,
        },
        "compute": {},
        "scheduler": {
            "policy": s.policy,
            "strict_online_budget": s.strict_online_budget,
        },
        "sim": {
            "horizon_s": s.horizon_s,
            "eval_period_s": s.eval_period_s,
            "seed": s.seed,
            "coarse_step_s": s.coarse_step_s,
        },
    }
    if s.labels_per_group is not None:
        doc["learner"]["labels_per_group"] = s.labels_per_group
    if s.train_time_s is not None:
        doc["compute"]["train_time_s"] = s.train_time_s
    if s.cycles_per_bit is not None:
        doc["compute"]["cycles_per_bit"] = s.cycles_per_bit
        doc["compute"]["cpu_hz"] = s.cpu_hz
    if s.model_bits is not None:
        doc["sim"]["model_bits"] = s.model_bits
    if s.max_concurrent_links is not None:
        doc["sim"]["max_concurrent_links"] = s.max_concurrent_links
    return doc


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


def with_overrides(
    scenario: Scenario,
    seed: int | None = None,
    policy: str | None = None,
    train_time_s: float | None = None,
    horizon_s: float | None = None,
) -> Scenario:
    """Copy of a scenario with CLI-style overrides applied and revalidated."""
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if policy is not None:
        updates["policy"] = policy
    if train_time_s is not None:
        updates["train_time_s"] = train_time_s
    if horizon_s is not None:
        updates["horizon_s"] = horizon_s
    out = replace(scenario, **updates) if updates else scenario
    out.validate()
    return out
