"""Circular-orbit kinematics, ground-station visibility and contact plans.

All positions are expressed in an Earth-centered inertial frame; the ground
station rotates with the Earth at the sidereal rate. Orbits are ideal
two-body circles (no J2, no drag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ScenarioError


@dataclass(frozen=True)
class EarthConstants:
    r_e: float = 6371e3            # Earth radius [m]
    mu: float = 3.98e14            # geocentric gravitational constant [m^3/s^2]
    omega_e: float = 7.2921159e-5  # sidereal rotation rate [rad/s]
    c: float = 299792458.0         # speed of light [m/s]


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
    """One maximal visibility interval [rise_s, set_s] of a satellite within
    the horizon, and its longest slant range (see max_pass_distance)."""

    rise_s: float
    set_s: float
    max_distance_m: float

    @property
    def duration_s(self) -> float:
        return self.set_s - self.rise_s


@dataclass
class ContactPlan:
    """Per-satellite ordered pass lists over a simulation horizon."""

    passes: list[list[Pass]] = field(default_factory=list)

    def pass_counts(self) -> list[int]:
        return [len(p) for p in self.passes]


def orbital_period(altitude_m: float) -> float:
    """Period of a circular orbit at the given altitude, in seconds."""
    if altitude_m < 0:
        raise ValueError("altitude must be non-negative")
    r = EARTH.r_e + altitude_m
    v = math.sqrt(EARTH.mu / r)
    return 2.0 * math.pi * r / v


def flatten_constellation(orbits: list[OrbitSpec]) -> list[tuple[OrbitSpec, int]]:
    """Global satellite index -> (orbit, index within orbit)."""
    flat = []
    for orbit in orbits:
        for j in range(orbit.satellite_count):
            flat.append((orbit, j))
    return flat


class _OrbitTerms(NamedTuple):
    """The constants of one satellite's position: Python floats for one
    satellite, or arrays with one entry per satellite or per evaluation."""

    r: float | np.ndarray
    n: float | np.ndarray
    u0: float | np.ndarray
    co: float | np.ndarray
    so: float | np.ndarray
    si: float | np.ndarray
    so_ci: float | np.ndarray
    co_ci: float | np.ndarray

    def take(self, k: np.ndarray) -> _OrbitTerms:
        return _OrbitTerms(*(a[k] for a in self))


def _orbit_terms(orbit: OrbitSpec, sat_index: int) -> _OrbitTerms:
    ci, si = math.cos(orbit.inclination_rad), math.sin(orbit.inclination_rad)
    co, so = math.cos(orbit.raan_rad), math.sin(orbit.raan_rad)
    return _OrbitTerms(
        r=EARTH.r_e + orbit.altitude_m,
        n=2.0 * math.pi / orbital_period(orbit.altitude_m),
        u0=orbit.initial_arg_latitude_rad
        + 2.0 * math.pi * sat_index / orbit.satellite_count,
        co=co, so=so, si=si, so_ci=so * ci, co_ci=co * ci,
    )


def _constellation_terms(orbits: list[OrbitSpec]) -> _OrbitTerms:
    """Orbit terms of every satellite, indexed by global satellite id."""
    rows = [_orbit_terms(o, j) for o, j in flatten_constellation(orbits)]
    table = np.array(rows, dtype=float).reshape(-1, len(_OrbitTerms._fields))
    return _OrbitTerms(*table.T.copy())


def _position(terms: _OrbitTerms, t: float | np.ndarray) -> np.ndarray:
    """ECI positions from orbit terms; terms and t broadcast elementwise.

    Every caller goes through these float operations, so one satellite's
    position at one instant has the same bits however it is batched.
    """
    u = terms.u0 + terms.n * t
    cu, su = np.cos(u), np.sin(u)
    # Rz(raan) @ Rx(i) applied to the in-plane position (r*cu, r*su, 0)
    x = terms.r * (terms.co * cu - terms.so_ci * su)
    y = terms.r * (terms.so * cu + terms.co_ci * su)
    z = terms.r * (terms.si * su)
    return np.stack([x, y, z], axis=-1)


def satellite_position_eci(
    orbit: OrbitSpec,
    sat_index: int,
    t: float | np.ndarray,
) -> np.ndarray:
    """ECI position of one satellite of an orbit at time(s) t.

    Returns shape (3,) for scalar t and (n, 3) for an array of times.
    """
    if sat_index >= orbit.satellite_count:
        raise ValueError("sat_index out of range for this orbit")
    return _position(_orbit_terms(orbit, sat_index), np.asarray(t, dtype=float))


def ground_station_position_eci(
    gs: GroundStation, t: float | np.ndarray
) -> np.ndarray:
    """ECI position of the rotating ground station at time(s) t."""
    t = np.asarray(t, dtype=float)
    lon = gs.longitude_rad + EARTH.omega_e * t
    clat = math.cos(gs.latitude_rad)
    x = EARTH.r_e * clat * np.cos(lon)
    y = EARTH.r_e * clat * np.sin(lon)
    z = EARTH.r_e * math.sin(gs.latitude_rad) * np.ones_like(np.asarray(lon))
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


# coarse-scan windows: grid steps per window and the bound's margin; the
# bracket width at which bisection stops (see compute_contact_plan)
_WINDOW_STEPS = 12
_WINDOW_MARGIN_RAD = 1e-6
_REFINE_TOL_S = 0.1


def _visible(terms, gs, t):
    """is_visible of satellites terms at times t; both broadcast elementwise."""
    return is_visible(_position(terms, t), gs, ground_station_position_eci(gs, t))


def _candidate_windows(terms, gs, grid):
    """Window ends (grid indices) and the (satellite, window) mask of the
    windows whose bound does not rule out a visible grid point.

    Window i spans grid points ends[i]..ends[i + 1]; the last one ends at
    the horizon and may hold fewer steps.
    """
    last = len(grid) - 1
    ends = np.append(np.arange(0, last, _WINDOW_STEPS), last)
    t = grid[ends]
    col = terms.take(np.s_[:, None])
    sat_dir = _position(col, t) / col.r[..., None]
    gs_dir = ground_station_position_eci(gs, t) / EARTH.r_e
    cos_theta = np.sum(sat_dir * gs_dir, axis=-1)
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    alpha = gs.min_elevation_rad
    lam = np.arccos(EARTH.r_e * math.cos(alpha) / terms.r) - alpha
    rate = terms.n + EARTH.omega_e
    floor = 0.5 * (theta[:, :-1] + theta[:, 1:] - rate[:, None] * np.diff(t))
    return ends, floor <= (lam + _WINDOW_MARGIN_RAD)[:, None]


def _refine_crossings(terms, gs, t_lo, t_hi):
    """Bisect the visibility change inside every bracket [t_lo[i], t_hi[i]]
    of satellite terms[i] at once; return the midpoints.

    Each step evaluates all brackets in one array call but moves only those
    still wider than _REFINE_TOL_S, so every bracket takes the same steps,
    with the same float operations, as a bisection of that bracket alone.
    t_lo only moves to an instant with its own visibility, so that
    visibility is evaluated once.
    """
    v_lo = _visible(terms, gs, t_lo)
    active = t_hi - t_lo > _REFINE_TOL_S
    while active.any():
        t_mid = 0.5 * (t_lo + t_hi)
        move_lo = active & (_visible(terms, gs, t_mid) == v_lo)
        t_lo = np.where(move_lo, t_mid, t_lo)
        t_hi = np.where(active & ~move_lo, t_mid, t_hi)
        active = t_hi - t_lo > _REFINE_TOL_S
    return 0.5 * (t_lo + t_hi)


def compute_contact_plan(
    orbits: list[OrbitSpec],
    gs: GroundStation,
    horizon_s: float,
    coarse_step_s: float = 10.0,
) -> ContactPlan:
    """Find every pass of every satellite over [0, horizon_s]; a pass under
    way at t=0 or at horizon_s is clipped there.

    A coarse visibility scan on a coarse_step_s grid locates the grid cells
    holding a rise or set; all crossings of the constellation are then
    bisected together until each bracket is at most _REFINE_TOL_S = 0.1 s
    wide (see _refine_crossings). The last cell ends at horizon_s and may be
    narrower than the step. Passes shorter than coarse_step_s may be missed,
    hence the step is capped at 10 s.

    The scan evaluates the elevation only where a pass is possible. A
    satellite at radius r is visible only while the central angle theta
    between its direction and the station's is at most
    lam = arccos(r_e cos(alpha) / r) - alpha, and theta changes no faster
    than n + omega_e (mean motion plus Earth rotation). So on a window of
    width w whose ends have angles theta_a and theta_b, theta never falls
    below (theta_a + theta_b - (n + omega_e) w) / 2. Windows of 12 grid
    steps where that bound exceeds lam + 1e-6 rad hold no visible grid
    point and are skipped; every other grid point goes through
    is_visible exactly as in a scan of the full grid, so the
    visibility mask, and with it the plan, is the full scan's to the bit.
    """
    if coarse_step_s <= 0 or coarse_step_s > 10.0:
        raise ScenarioError("coarse_step_s must lie in (0, 10] seconds")
    if horizon_s <= 0:
        raise ScenarioError("horizon must be strictly positive")

    n_steps = int(math.ceil(horizon_s / coarse_step_s))
    grid = np.minimum(np.arange(n_steps + 1) * coarse_step_s, horizon_s)
    terms = _constellation_terms(orbits)

    ends, kept = _candidate_windows(terms, gs, grid)
    need = np.zeros((len(terms.r), len(grid)), dtype=bool)
    need[:, :-1] = np.repeat(kept, np.diff(ends), axis=1)
    need[:, ends[1:]] |= kept
    sat, point = np.nonzero(need)
    visible = np.zeros_like(need)
    visible[sat, point] = _visible(terms.take(sat), gs, grid[point])

    # the mask padded with off-time, and the grid with its own ends: a pass
    # under way at t=0 or at the horizon changes in a zero-width bracket, so
    # it is clipped at exactly 0.0 or horizon_s. Row-major: each satellite's
    # changes alternate rise (0->1) and set (1->0); each pass's longest range
    # is the larger of its two ends' (see max_pass_distance)
    sat, col = np.nonzero(np.diff(visible.astype(np.int8), axis=1, prepend=0, append=0))
    crossing_terms = terms.take(sat)
    edges = np.concatenate((grid[:1], grid, grid[-1:]))
    t = _refine_crossings(crossing_terms, gs, edges[col], edges[col + 1])
    d = slant_range(_position(crossing_terms, t), ground_station_position_eci(gs, t))
    plan = ContactPlan(passes=[[] for _ in terms.r])
    for k, r, s, dmax in zip(sat[0::2].tolist(), t[0::2].tolist(), t[1::2].tolist(),
                             np.maximum(d[0::2], d[1::2]).tolist()):
        plan.passes[k].append(Pass(r, s, dmax))
    return plan


def max_pass_distance(
    pass_: Pass,
    orbit: OrbitSpec,
    sat_index: int,
    gs: GroundStation,
) -> float:
    """Longest slant range over one pass: the larger of the ranges at its
    rise and set instants.

    On a circular orbit the slant range grows as the elevation falls, and
    over a contiguous pass the elevation is lowest at its two ends.
    """
    times = np.array([pass_.rise_s, pass_.set_s])
    sp = satellite_position_eci(orbit, sat_index, times)
    gp = ground_station_position_eci(gs, times)
    return float(np.max(slant_range(sp, gp)))
