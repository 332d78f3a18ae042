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
    the horizon, and its longest slant range (see compute_contact_plan).
    For a pass clipped at both ends, in view over the whole horizon,
    max_distance_m is an upper bound: the range at the mask elevation."""

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
    if not 0 <= sat_index < orbit.satellite_count:
        raise ValueError("sat_index out of range for this orbit")
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


def _position(terms: _OrbitTerms, t: float | np.ndarray) -> tuple:
    """ECI x, y and z from orbit terms; terms and t broadcast elementwise.

    Every caller goes through these float operations, so one satellite's
    position at one instant has the same bits however it is batched.
    """
    u = terms.u0 + terms.n * t
    cu, su = np.cos(u), np.sin(u)
    # Rz(raan) @ Rx(i) applied to the in-plane position (r*cu, r*su, 0)
    return (terms.r * (terms.co * cu - terms.so_ci * su),
            terms.r * (terms.so * cu + terms.co_ci * su),
            terms.r * (terms.si * su))


def _station(gs: GroundStation, t: float | np.ndarray) -> tuple:
    """ECI x, y and z of the rotating ground station at time(s) t; z is a
    float, the same at every instant."""
    lon = gs.longitude_rad + EARTH.omega_e * t
    clat = math.cos(gs.latitude_rad)
    return (EARTH.r_e * clat * np.cos(lon), EARTH.r_e * clat * np.sin(lon),
            EARTH.r_e * math.sin(gs.latitude_rad))


def _elevation(sx, sy, sz, gx, gy, gz):
    """Elevation of satellites at (sx, sy, sz) above the local horizon of a
    station at (gx, gy, gz), radians; the components broadcast elementwise.

    pi/2 minus the angle between the station zenith direction and the
    station-to-satellite line of sight. Each three-term sum is added in
    numpy's (x + y) + z order, so the result is that of np.linalg.norm and
    np.sum over stacked (n, 3) positions, to the bit.
    """
    lx, ly, lz = sx - gx, sy - gy, sz - gz
    los_norm = np.sqrt(lx * lx + ly * ly + lz * lz)
    if np.any(los_norm == 0.0):
        raise ValueError("satellite and ground station positions coincide")
    gs_norm = np.sqrt(gx * gx + gy * gy + gz * gz)
    cosang = (gx * lx + gy * ly + gz * lz) / (gs_norm * los_norm)
    return np.pi / 2 - np.arccos(np.clip(cosang, -1.0, 1.0))


def satellite_position_eci(
    orbit: OrbitSpec,
    sat_index: int,
    t: float | np.ndarray,
) -> np.ndarray:
    """ECI position of one satellite of an orbit at time(s) t.

    Returns shape (3,) for scalar t and (n, 3) for an array of times.
    """
    t = np.asarray(t, dtype=float)
    return np.stack(_position(_orbit_terms(orbit, sat_index), t), axis=-1)


def ground_station_position_eci(
    gs: GroundStation, t: float | np.ndarray
) -> np.ndarray:
    """ECI position of the rotating ground station at time(s) t."""
    x, y, z = _station(gs, np.asarray(t, dtype=float))
    return np.stack([x, y, np.full_like(x, z)], axis=-1)


def elevation_angle(sat_pos: np.ndarray, gs_pos: np.ndarray) -> float | np.ndarray:
    """Elevation of the satellite above the station's local horizon, radians
    (see _elevation). Works elementwise on (n, 3) inputs."""
    sat_xyz = np.moveaxis(np.asarray(sat_pos, dtype=float), -1, 0)
    gs_xyz = np.moveaxis(np.asarray(gs_pos, dtype=float), -1, 0)
    result = _elevation(*sat_xyz, *gs_xyz)
    return float(result) if result.ndim == 0 else result


# the coarse scan's grid step; coarse-scan windows: grid steps per window
# and the bound's margin; the (satellite, window) cells of one block of the
# scan; the bracket width at which bisection stops (see compute_contact_plan)
_STEP_S = 10.0
_WINDOW_STEPS = 12
_WINDOW_MARGIN_RAD = 1e-6
_BLOCK_CELLS = 2**14
_REFINE_TOL_S = 0.1


def _instants(i, step, end):
    """min(i * step, end) at indices i: grid point i of the coarse grid
    (step _STEP_S, end horizon_s), and window end i of the windows (step
    _WINDOW_STEPS, end the last grid index)."""
    return np.minimum(i * step, end)


def _last_index(horizon_s: float) -> int:
    """The first grid index i with i * _STEP_S >= horizon_s, the last point
    of the coarse grid. For an integer m, 10m is an exact float and ulp(10m)
    >= 8 ulp(m), so a float h > 10m gives h / 10 - m >= 0.8 ulp(m), which
    rounds above m, and h <= 10m never rounds above m: the quotient's
    ceiling is exact, save that h <= 5 * 2**-1074 rounds to 0."""
    return max(1, math.ceil(horizon_s / _STEP_S))


def _blocks(n_windows: int, n_sats: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of windows, each of at most
    _BLOCK_CELLS (satellite, window) cells and at least one window."""
    step = max(1, _BLOCK_CELLS // max(n_sats, 1))
    return [(a, min(a + step, n_windows)) for a in range(0, n_windows, step)]


def _visible(terms, gs, t):
    """Visibility of satellites terms at times t; both broadcast elementwise."""
    return _elevation(*_position(terms, t), *_station(gs, t)) >= gs.min_elevation_rad


def _slant_range(terms, gs, t):
    """Slant range of satellites terms at times t, meters, summed in
    _elevation's (x + y) + z order; both broadcast elementwise."""
    lx, ly, lz = (s - g for s, g in zip(_position(terms, t), _station(gs, t)))
    return np.sqrt(lx * lx + ly * ly + lz * lz)


def _window_bound(col_terms, gs, t_ends):
    """For satellites col_terms (orbit terms as a column) at the window ends
    t_ends of one block: the (satellite, end) visibility, and the (satellite,
    window) mask of the windows between consecutive ends whose bound does
    not rule out a visible instant (see compute_contact_plan)."""
    alpha, r = gs.min_elevation_rad, col_terms.r
    lam = np.arccos(EARTH.r_e * math.cos(alpha) / r) - alpha + _WINDOW_MARGIN_RAD
    elev = _elevation(*_position(col_terms, t_ends), *_station(gs, t_ends))
    # the central angle between the satellite and station directions, from
    # the triangle of the Earth's center, the station and the satellite
    theta = np.arccos(EARTH.r_e * np.cos(elev) / r) - elev
    rate = col_terms.n + EARTH.omega_e
    floor = 0.5 * (theta[:, :-1] + theta[:, 1:] - rate * np.diff(t_ends))
    return elev >= alpha, floor <= lam


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


def _changes(terms, gs, horizon_s):
    """Satellite and grid bracket (t_lo, t_hi) of every visibility change,
    in row-major order: change c lies between grid points c - 1 and c, each
    held to the grid, so the changes from the off-time before t=0 and to
    the one after the last grid point get zero-width brackets.

    Each block of windows (see _blocks) is bounded by _window_bound at its
    window ends (see _instants; the last window may be narrower), and only
    its kept windows are scanned: a skipped window holds no visible
    instant, and a visible window end lies between kept windows (see
    compute_contact_plan). The inner points of the kept windows are
    evaluated with the station position computed once per grid point, and
    only at the windows some satellite keeps.
    """
    last = _last_index(horizon_s)
    n_windows = -(-last // _WINDOW_STEPS)
    col_terms = terms.take(np.s_[:, None])
    sats, cols = [], []
    steps = np.arange(1, _WINDOW_STEPS)
    for start, stop in _blocks(n_windows, len(terms.r)):
        ends = _instants(np.arange(start, stop + 1), _WINDOW_STEPS, last)
        visible, kept = _window_bound(col_terms, gs, _instants(ends, _STEP_S, horizon_s))
        if start == 0:
            sats.append(np.flatnonzero(visible[:, 0]))
            cols.append(np.zeros(len(sats[-1]), dtype=int))
        if stop == n_windows:
            sats.append(np.flatnonzero(visible[:, -1]))
            cols.append(np.full(len(sats[-1]), last + 1))
        s, k = np.nonzero(kept)
        # the windows some satellite keeps, and each kept cell's place among them
        used = kept.any(axis=0)
        at = np.cumsum(used)[k] - 1
        inner = ends[np.flatnonzero(used), None] + steps
        t = _instants(inner, _STEP_S, horizon_s)
        gx, gy, gz = _station(gs, t)
        elev = _elevation(*_position(terms.take(s[:, None]), t[at]), gx[at], gy[at], gz)
        # each window's points in order; the end stands in for the inner
        # points a last window narrower than _WINDOW_STEPS does not have
        left, right = visible[s, k][:, None], visible[s, k + 1][:, None]
        scan = np.where(inner[at] < ends[k + 1, None], elev >= gs.min_elevation_rad, right)
        i, j = np.nonzero(np.diff(np.hstack((left, scan, right)), axis=1))
        sats.append(s[i])
        cols.append(ends[k[i]] + j + 1)
    sat, col = np.concatenate(sats), np.concatenate(cols)
    order = np.lexsort((col, sat))
    sat, col = sat[order], col[order]
    return (sat, _instants(np.maximum(col - 1, 0), _STEP_S, horizon_s),
            _instants(np.minimum(col, last), _STEP_S, horizon_s))


def compute_contact_plan(
    orbits: list[OrbitSpec],
    gs: GroundStation,
    horizon_s: float,
) -> ContactPlan:
    """Find every pass of every satellite over [0, horizon_s]; a pass under
    way at t=0 or at horizon_s is clipped there.

    A coarse visibility scan on a grid of step _STEP_S = 10 s locates the
    grid cells holding a rise or set; all crossings of the constellation
    are then bisected together until each bracket is at most _REFINE_TOL_S
    = 0.1 s wide (see _refine_crossings). The last cell ends at horizon_s
    and may be narrower than the step. Passes shorter than the step may be
    missed.

    The scan evaluates the elevation only where a pass is possible. A
    satellite at radius r is visible only while the central angle theta
    between its direction and the station's is at most
    lam = arccos(r_e cos(alpha) / r) - alpha, and theta changes no faster
    than n + omega_e (mean motion plus Earth rotation). So on a window of
    width w whose ends have angles theta_a and theta_b, theta never falls
    below (theta_a + theta_b - (n + omega_e) w) / 2. The elevation e is
    evaluated at every window end, and theta = arccos(r_e cos(e) / r) - e
    follows from it. Windows of 12 grid steps where that bound exceeds
    lam + 1e-6 rad hold no visible instant and are skipped; the inner
    points of every other window are evaluated, and the visibility changes
    are read off each window's points in turn (see _changes). At a visible
    window end theta <= lam, so the bound of each window beside it is at
    most that end's theta: every visible end lies between kept windows, and
    the margin absorbs the rounding. Every evaluated point goes through
    the elevation of elevation_angle with the float operations of a scan of
    the full grid, so the changes, and with them the plan, are the full
    scan's to the bit.

    A pass is priced at the larger range of its two ends (see
    max_pass_distance), but one clipped at both ends may dip lower between
    them: it gets the range at the mask, sqrt(r^2 - r_e^2 cos^2(alpha)) -
    r_e sin(alpha), which no visible instant of a circular orbit exceeds.

    No grid is built: grid points and window ends are read off their
    indices through _instants. The bound and the scan go through the
    windows once, in blocks of at most _BLOCK_CELLS (satellite, window)
    cells, so the plan keeps one block at a time besides the changes found
    and the passes.
    """
    if horizon_s <= 0:
        raise ScenarioError("horizon must be strictly positive")

    terms = _constellation_terms(orbits)
    sat, t_lo, t_hi = _changes(terms, gs, horizon_s)
    # a pass under way at t=0 or at the horizon changes in a zero-width
    # bracket, so it is clipped at exactly 0.0 or horizon_s. Each
    # satellite's changes alternate rise (0->1) and set (1->0)
    crossing_terms = terms.take(sat)
    t = _refine_crossings(crossing_terms, gs, t_lo, t_hi)
    d = _slant_range(crossing_terms, gs, t)
    r, alpha = crossing_terms.r[0::2], gs.min_elevation_rad
    mask_range = np.sqrt(r * r - (EARTH.r_e * math.cos(alpha)) ** 2) - EARTH.r_e * math.sin(alpha)
    dmax = np.where((t[0::2] == 0.0) & (t[1::2] == horizon_s), mask_range,
                    np.maximum(d[0::2], d[1::2]))
    plan = ContactPlan(passes=[[] for _ in terms.r])
    for k, a, b, dist in zip(sat[0::2].tolist(), t[0::2].tolist(), t[1::2].tolist(),
                             dmax.tolist()):
        plan.passes[k].append(Pass(a, b, dist))
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
    over a pass that rises or sets within the horizon the elevation is
    lowest at an end. This keeps the two-ends rule for every pass; the plan
    prices one clipped at both ends at the mask instead.
    """
    times = np.array([pass_.rise_s, pass_.set_s])
    return float(np.max(_slant_range(_orbit_terms(orbit, sat_index), gs, times)))
