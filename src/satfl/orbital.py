"""Circular-orbit kinematics, ground-station visibility and contact plans.

All positions are expressed in an Earth-centered inertial frame; the ground
station rotates with the Earth at the sidereal rate. Orbits are ideal
two-body circles (no J2, no drag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError


@dataclass(frozen=True)
class EarthConstants:
    r_e: float = 6371e3            # Earth radius [m]
    mu: float = 3.98e14            # geocentric gravitational constant [m^3/s^2]
    omega_e: float = 7.2921159e-5  # sidereal rotation rate [rad/s]
    c: float = 299792458.0         # speed of light [m/s]

    def __post_init__(self):
        for name in ("r_e", "mu", "omega_e", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


EARTH = EarthConstants()


@dataclass(frozen=True)
class OrbitSpec:
    """One circular orbital plane with uniformly phased satellites."""

    altitude_m: float
    inclination_rad: float
    raan_rad: float = 0.0
    initial_arg_latitude_rad: float = 0.0
    satellite_count: int = 1

    def __post_init__(self):
        if self.altitude_m <= 0:
            raise ValueError("altitude must be strictly positive")
        if not 0.0 <= self.inclination_rad <= math.pi:
            raise ValueError("inclination must lie in [0, pi]")
        if self.satellite_count < 1:
            raise ValueError("satellite_count must be >= 1")


@dataclass(frozen=True)
class GroundStation:
    latitude_rad: float
    longitude_rad: float
    min_elevation_rad: float

    def __post_init__(self):
        if abs(self.latitude_rad) > math.pi / 2:
            raise ValueError("latitude must lie in [-pi/2, pi/2]")
        if not 0.0 <= self.min_elevation_rad < math.pi / 2:
            raise ValueError("min elevation must lie in [0, pi/2)")


@dataclass(frozen=True)
class Pass:
    """One maximal visibility interval [rise_s, set_s] of a satellite."""

    rise_s: float
    set_s: float

    @property
    def duration_s(self) -> float:
        return self.set_s - self.rise_s


@dataclass
class ContactPlan:
    """Per-satellite ordered pass lists over a simulation horizon."""

    horizon_s: float
    passes: list[list[Pass]] = field(default_factory=list)

    @property
    def satellite_count(self) -> int:
        return len(self.passes)

    def pass_counts(self) -> list[int]:
        return [len(p) for p in self.passes]


def orbital_period(altitude_m: float, earth: EarthConstants = EARTH) -> float:
    """Period of a circular orbit at the given altitude, in seconds."""
    if altitude_m < 0:
        raise ValueError("altitude must be non-negative")
    r = earth.r_e + altitude_m
    v = math.sqrt(earth.mu / r)
    return 2.0 * math.pi * r / v


def flatten_constellation(orbits: list[OrbitSpec]) -> list[tuple[OrbitSpec, int]]:
    """Global satellite index -> (orbit, index within orbit)."""
    flat = []
    for orbit in orbits:
        for j in range(orbit.satellite_count):
            flat.append((orbit, j))
    return flat


def satellite_position_eci(
    orbit: OrbitSpec,
    sat_index: int,
    t: float | np.ndarray,
    earth: EarthConstants = EARTH,
) -> np.ndarray:
    """ECI position of one satellite of an orbit at time(s) t.

    Returns shape (3,) for scalar t and (n, 3) for an array of times.
    """
    if sat_index >= orbit.satellite_count:
        raise ValueError("sat_index out of range for this orbit")
    t = np.asarray(t, dtype=float)
    r = earth.r_e + orbit.altitude_m
    n = 2.0 * math.pi / orbital_period(orbit.altitude_m, earth)
    u = (
        orbit.initial_arg_latitude_rad
        + 2.0 * math.pi * sat_index / orbit.satellite_count
        + n * t
    )
    cu, su = np.cos(u), np.sin(u)
    ci, si = math.cos(orbit.inclination_rad), math.sin(orbit.inclination_rad)
    co, so = math.cos(orbit.raan_rad), math.sin(orbit.raan_rad)
    # Rz(raan) @ Rx(i) applied to the in-plane position (r*cu, r*su, 0)
    x = r * (co * cu - so * ci * su)
    y = r * (so * cu + co * ci * su)
    z = r * (si * su)
    return np.stack([x, y, z], axis=-1)


def ground_station_position_eci(
    gs: GroundStation, t: float | np.ndarray, earth: EarthConstants = EARTH
) -> np.ndarray:
    """ECI position of the rotating ground station at time(s) t."""
    t = np.asarray(t, dtype=float)
    lon = gs.longitude_rad + earth.omega_e * t
    clat = math.cos(gs.latitude_rad)
    x = earth.r_e * clat * np.cos(lon)
    y = earth.r_e * clat * np.sin(lon)
    z = earth.r_e * math.sin(gs.latitude_rad) * np.ones_like(np.asarray(lon))
    return np.stack([x, y, np.broadcast_to(z, np.shape(x))], axis=-1)


def elevation_angle(sat_pos: np.ndarray, gs_pos: np.ndarray) -> float | np.ndarray:
    """Elevation of the satellite above the station's local horizon, radians.

    pi/2 minus the angle between the station zenith direction and the
    station-to-satellite line of sight. Works elementwise on (n, 3) inputs.
    """
    sat_pos = np.asarray(sat_pos, dtype=float)
    gs_pos = np.asarray(gs_pos, dtype=float)
    los = sat_pos - gs_pos
    los_norm = np.linalg.norm(los, axis=-1)
    gs_norm = np.linalg.norm(gs_pos, axis=-1)
    if np.any(los_norm == 0.0):
        raise ValueError("satellite and ground station positions coincide")
    cosang = np.sum(gs_pos * los, axis=-1) / (gs_norm * los_norm)
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    result = np.pi / 2 - ang
    return float(result) if result.ndim == 0 else result


def is_visible(
    sat_pos: np.ndarray, gs: GroundStation, gs_pos: np.ndarray
) -> bool | np.ndarray:
    """Visibility state: elevation >= minimum elevation (closed boundary)."""
    elev = elevation_angle(sat_pos, gs_pos)
    result = np.asarray(elev) >= gs.min_elevation_rad
    return bool(result) if result.ndim == 0 else result


def slant_range(sat_pos: np.ndarray, gs_pos: np.ndarray) -> float | np.ndarray:
    """Euclidean satellite-to-station distance in meters."""
    d = np.linalg.norm(np.asarray(sat_pos) - np.asarray(gs_pos), axis=-1)
    return float(d) if d.ndim == 0 else d


def _elevation_at(orbit, sat_index, gs, t, earth):
    sp = satellite_position_eci(orbit, sat_index, t, earth)
    gp = ground_station_position_eci(gs, t, earth)
    return elevation_angle(sp, gp)


def _refine_crossings(orbit, sat_index, gs, t_lo, t_hi, alpha, tol, earth):
    """Bisect the sign change of elevation - alpha inside every bracket
    [t_lo[i], t_hi[i]] of one satellite at once; return the midpoints.

    Each step evaluates all brackets in one array call but moves only those
    still wider than tol, so every bracket takes the same steps, with the
    same float operations, as a bisection of that bracket alone.
    """
    f_lo = _elevation_at(orbit, sat_index, gs, t_lo, earth) - alpha
    active = t_hi - t_lo > tol
    while active.any():
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = _elevation_at(orbit, sat_index, gs, t_mid, earth) - alpha
        move_lo = active & ((f_mid >= 0) == (f_lo >= 0))
        t_lo = np.where(move_lo, t_mid, t_lo)
        f_lo = np.where(move_lo, f_mid, f_lo)
        t_hi = np.where(active & ~move_lo, t_mid, t_hi)
        active = t_hi - t_lo > tol
    return 0.5 * (t_lo + t_hi)


def compute_contact_plan(
    orbits: list[OrbitSpec],
    gs: GroundStation,
    horizon_s: float,
    coarse_step_s: float = 10.0,
    refine_tol_s: float = 0.1,
    earth: EarthConstants = EARTH,
) -> ContactPlan:
    """Find every pass of every satellite over [0, horizon_s].

    A coarse visibility scan on a coarse_step_s grid locates the grid cells
    holding a rise or set; all crossings of one satellite are then bisected
    together, each to refine_tol_s (see _refine_crossings). The last cell
    ends at horizon_s and may be narrower than the step. Passes shorter
    than coarse_step_s may be missed, hence the step is capped at 10 s.
    """
    if coarse_step_s <= 0 or coarse_step_s > 10.0:
        raise ScenarioError("coarse_step_s must lie in (0, 10] seconds")
    if horizon_s <= 0:
        raise ScenarioError("horizon must be strictly positive")

    n_steps = int(math.ceil(horizon_s / coarse_step_s))
    grid = np.minimum(np.arange(n_steps + 1) * coarse_step_s, horizon_s)
    gs_pos = ground_station_position_eci(gs, grid, earth)
    alpha = gs.min_elevation_rad

    plan = ContactPlan(horizon_s=horizon_s)
    for orbit, j in flatten_constellation(orbits):
        sat_pos = satellite_position_eci(orbit, j, grid, earth)
        visible = elevation_angle(sat_pos, gs_pos) >= alpha
        sat_id = len(plan.passes)
        if visible[0] or visible[-1]:
            raise ScenarioError(
                f"satellite {sat_id} is visible at a horizon endpoint; "
                "the scan interval must start and end in off-time"
            )
        # changes alternate rise (0->1) then set (1->0) since both ends are off
        changes = np.flatnonzero(np.diff(visible.astype(np.int8)))
        t = _refine_crossings(orbit, j, gs, grid[changes], grid[changes + 1],
                              alpha, refine_tol_s, earth)
        plan.passes.append([Pass(r, s) for r, s in zip(t[0::2], t[1::2])])
    return plan


def max_pass_distance(
    pass_: Pass,
    orbit: OrbitSpec,
    sat_index: int,
    gs: GroundStation,
    earth: EarthConstants = EARTH,
) -> float:
    """Longest slant range over one pass: the larger of the ranges at its
    rise and set instants.

    On a circular orbit the slant range grows as the elevation falls, and
    over a contiguous pass the elevation is lowest at its two ends.
    """
    times = np.array([pass_.rise_s, pass_.set_s])
    sp = satellite_position_eci(orbit, sat_index, times, earth)
    gp = ground_station_position_eci(gs, times, earth)
    return float(np.max(slant_range(sp, gp)))
