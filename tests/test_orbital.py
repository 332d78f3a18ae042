import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satfl import orbital
from satfl.orbital import (
    EARTH,
    GroundStation,
    OrbitSpec,
    Pass,
    compute_contact_plan,
    flatten_constellation,
    elevation_angle,
    ground_station_position_eci,
    max_pass_distance,
    orbital_period,
    satellite_position_eci,
)

from conftest import brute_force_passes


def scalar_refine_crossing(orbit, sat_index, gs, t_lo, t_hi, alpha, tol):
    """Reference: the one-bracket scalar bisection that the planner's batched
    bisection replaced, one scalar elevation evaluation per step."""
    def f(t):
        sp = satellite_position_eci(orbit, sat_index, t)
        return elevation_angle(sp, ground_station_position_eci(gs, t)) - alpha

    f_lo = f(t_lo)
    while t_hi - t_lo > tol:
        t_mid = 0.5 * (t_lo + t_hi)
        f_mid = f(t_mid)
        if (f_mid >= 0) == (f_lo >= 0):
            t_lo, f_lo = t_mid, f_mid
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


def clipped_brackets(visible, grid):
    """Reference: the grid cells holding each visibility change, with the
    time before t=0 and after the horizon off; a change at either end gets
    the zero-width bracket of that end."""
    changes = np.flatnonzero(np.diff(visible.astype(np.int8), prepend=0, append=0))
    return grid[np.maximum(changes - 1, 0)], grid[np.minimum(changes, len(grid) - 1)]


def coarse_grid(horizon_s, step_s=10.0):
    """The planner's coarse grid: min(i * step_s, horizon_s) for i up to the
    first i with i * step_s >= horizon_s."""
    i = np.arange(int(horizon_s / step_s) + 3)
    return np.minimum(i[:np.argmax(i * step_s >= horizon_s) + 1] * step_s, horizon_s)


def repaired_last_index(step_s, horizon_s):
    """Reference: the first grid index i with i * step_s >= horizon_s at any
    step; ceil(horizon_s / step_s) can miss it by one either way, as the
    quotient and the product each round."""
    i = math.ceil(horizon_s / step_s)
    i += i * step_s < horizon_s
    return i - ((i - 1) * step_s >= horizon_s)


def ulps_from(x, k):
    """The float k ulps above x (below it for a negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def window_ends(grid):
    """Reference: the grid index of every window end, every _WINDOW_STEPS
    grid points and at the last one."""
    last = len(grid) - 1
    return np.append(np.arange(0, last, orbital._WINDOW_STEPS), last)


def scalar_reference_passes(orbit, gs, horizon_s, step_s=10.0, tol=0.1):
    """(rise, set) of satellite 0 from the planner's coarse grid, each
    crossing refined on its own by the scalar reference; a pass under way
    at t=0 or at the horizon is clipped there."""
    grid = coarse_grid(horizon_s, step_s)
    alpha = gs.min_elevation_rad
    visible = elevation_angle(satellite_position_eci(orbit, 0, grid),
                              ground_station_position_eci(gs, grid)) >= alpha
    t = [scalar_refine_crossing(orbit, 0, gs, lo, hi, alpha, tol)
         for lo, hi in zip(*clipped_brackets(visible, grid))]
    return list(zip(t[0::2], t[1::2]))


def reference_position(orbit, sat_index, t):
    """Reference: satellite_position_eci as the full-grid planner had it."""
    t = np.asarray(t, dtype=float)
    r = EARTH.r_e + orbit.altitude_m
    n = 2.0 * math.pi / orbital_period(orbit.altitude_m)
    u = (
        orbit.initial_arg_latitude_rad
        + 2.0 * math.pi * sat_index / orbit.satellite_count
        + n * t
    )
    cu, su = np.cos(u), np.sin(u)
    ci, si = math.cos(orbit.inclination_rad), math.sin(orbit.inclination_rad)
    co, so = math.cos(orbit.raan_rad), math.sin(orbit.raan_rad)
    x = r * (co * cu - so * ci * su)
    y = r * (so * cu + co * ci * su)
    z = r * (si * su)
    return np.stack([x, y, z], axis=-1)


def stacked_elevation(sat_pos, gs_pos):
    """Reference: the elevation of stacked (n, 3) positions through
    np.linalg.norm and np.sum, as the full-grid planner had it."""
    los = sat_pos - gs_pos
    cosang = np.sum(gs_pos * los, axis=-1) / (
        np.linalg.norm(gs_pos, axis=-1) * np.linalg.norm(los, axis=-1))
    return np.pi / 2 - np.arccos(np.clip(cosang, -1.0, 1.0))


def stacked_slant_range(sat_pos, gs_pos):
    """Reference: the satellite-to-station distance of stacked (n, 3)
    positions through np.linalg.norm, as the planner had it."""
    return np.linalg.norm(sat_pos - gs_pos, axis=-1)


def reference_elevation(orbit, sat_index, gs, t):
    return stacked_elevation(reference_position(orbit, sat_index, t),
                             ground_station_position_eci(gs, t))


def reference_contact_plan(orbits, gs, horizon_s, step_s=10.0, tol=0.1):
    """Reference: the full-grid planner, one satellite at a time, clipping
    passes at the horizon ends; returns (rise, set) lists per satellite."""
    grid = coarse_grid(horizon_s, step_s)
    alpha = gs.min_elevation_rad
    plan = []
    for orbit, j in flatten_constellation(orbits):
        visible = reference_elevation(orbit, j, gs, grid) >= alpha
        t_lo, t_hi = clipped_brackets(visible, grid)
        f_lo = reference_elevation(orbit, j, gs, t_lo) - alpha
        active = t_hi - t_lo > tol
        while active.any():
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = reference_elevation(orbit, j, gs, t_mid) - alpha
            move_lo = active & ((f_mid >= 0) == (f_lo >= 0))
            t_lo = np.where(move_lo, t_mid, t_lo)
            f_lo = np.where(move_lo, f_mid, f_lo)
            t_hi = np.where(active & ~move_lo, t_mid, t_hi)
            active = t_hi - t_lo > tol
        t = 0.5 * (t_lo + t_hi)
        plan.append(list(zip(t[0::2], t[1::2])))
    return plan


def reference_max_distances(plan, orbits, gs, horizon_s):
    """Reference: the per-pass endpoint maximum, one call per pass; a pass
    clipped at both ends gets the range at the mask elevation."""
    alpha = gs.min_elevation_rad
    dists = []
    for (orbit, j), passes in zip(flatten_constellation(orbits), plan):
        r = EARTH.r_e + orbit.altitude_m
        dists.append([])
        for rise, set_ in passes:
            if rise == 0.0 and set_ == horizon_s:
                dists[-1].append(math.sqrt(r * r - (EARTH.r_e * math.cos(alpha)) ** 2)
                                 - EARTH.r_e * math.sin(alpha))
                continue
            times = np.array([rise, set_])
            sp = reference_position(orbit, j, times)
            gp = ground_station_position_eci(gs, times)
            dists[-1].append(float(np.max(stacked_slant_range(sp, gp))))
    return dists


def window_bound_at_every_end(orbits, gs, step_s, horizon_s):
    """orbital._window_bound over the whole horizon in one call: the
    (satellite, end) visibility at every window end of the reference grid
    (see window_ends) and the (satellite, window) mask of kept windows."""
    grid = coarse_grid(horizon_s, step_s)
    col_terms = orbital._constellation_terms(orbits).take(np.s_[:, None])
    return orbital._window_bound(col_terms, gs, grid[window_ends(grid)])


def unkept_visible_ends(kept, visible):
    """(satellite, end) of every visible window end beside a window that the
    bound rules out."""
    beside = np.ones_like(visible)
    beside[:, :-1] &= kept
    beside[:, 1:] &= kept
    return np.argwhere(visible & ~beside)


orbit_specs = st.builds(
    OrbitSpec,
    altitude_m=st.floats(200e3, 3000e3),
    inclination_rad=st.floats(0.0, math.pi),
    raan_rad=st.floats(0.0, 2 * math.pi),
    initial_arg_latitude_rad=st.floats(0.0, 2 * math.pi),
    satellite_count=st.integers(1, 3),
)
# the same, out to 10^6 km
far_orbit_specs = st.builds(
    OrbitSpec,
    altitude_m=st.one_of(st.floats(200e3, 3000e3), st.floats(200e3, 1e9)),
    inclination_rad=st.floats(0.0, math.pi),
    raan_rad=st.floats(0.0, 2 * math.pi),
    initial_arg_latitude_rad=st.floats(0.0, 2 * math.pi),
    satellite_count=st.integers(1, 3),
)
stations = st.builds(
    GroundStation,
    latitude_rad=st.one_of(
        st.sampled_from([0.0, math.radians(89.9), -math.radians(89.9)]),
        st.floats(-math.radians(89.9), math.radians(89.9)),
    ),
    longitude_rad=st.floats(0.0, 2 * math.pi),
    min_elevation_rad=st.floats(0.0, math.radians(60.0)),
)


def dense_max_distance(pass_, orbit, sat_index, gs, sample_step_s=1.0):
    """Reference: largest slant range over a pass sampled at <= 1 s."""
    n = max(2, int(math.ceil(pass_.duration_s / sample_step_s)) + 1)
    times = np.linspace(pass_.rise_s, pass_.set_s, n)
    return float(np.max(stacked_slant_range(
        satellite_position_eci(orbit, sat_index, times),
        ground_station_position_eci(gs, times))))

# frozen oracles: manual evaluation of T = 2*pi*(r_E + h) / sqrt(mu/(r_E + h))
# with r_E = 6371e3 m and mu = 3.98e14 m^3/s^2
T_500_KM = 5672.418374269101
T_2000_KM = 7627.888659060208


class TestOrbitalPeriod:
    def test_500km(self):
        assert orbital_period(500e3) == pytest.approx(T_500_KM, abs=1e-6)

    def test_2000km(self):
        assert orbital_period(2000e3) == pytest.approx(T_2000_KM, abs=1e-6)

    def test_surface_limit(self):
        expected = 2 * math.pi * EARTH.r_e / math.sqrt(EARTH.mu / EARTH.r_e)
        assert orbital_period(0.0) == pytest.approx(expected)

    def test_negative_altitude_rejected(self):
        with pytest.raises(ValueError):
            orbital_period(-1.0)


class TestSatellitePosition:
    def test_frame_convention(self):
        orbit = OrbitSpec(altitude_m=500e3, inclination_rad=0.0)
        pos = satellite_position_eci(orbit, 0, 0.0)
        np.testing.assert_allclose(pos, [EARTH.r_e + 500e3, 0.0, 0.0], atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        h=st.floats(200e3, 3000e3),
        inc=st.floats(0.0, math.pi),
        raan=st.floats(0.0, 2 * math.pi),
        phase=st.floats(0.0, 2 * math.pi),
        t=st.floats(0.0, 1e6),
    )
    def test_norm_and_periodicity(self, h, inc, raan, phase, t):
        orbit = OrbitSpec(h, inc, raan, phase)
        r = EARTH.r_e + h
        pos = satellite_position_eci(orbit, 0, t)
        assert np.linalg.norm(pos) == pytest.approx(r, rel=1e-6)
        period = orbital_period(h)
        again = satellite_position_eci(orbit, 0, t + period)
        np.testing.assert_allclose(again, pos, rtol=1e-6, atol=1e-3)

    def test_uniform_phasing(self):
        orbit = OrbitSpec(500e3, 1.0, satellite_count=4)
        p0 = satellite_position_eci(orbit, 0, 0.0)
        # satellite 2 is half an orbit ahead of satellite 0
        p2 = satellite_position_eci(orbit, 2, 0.0)
        np.testing.assert_allclose(p2, -p0, atol=1e-3)

    def test_index_out_of_range(self):
        orbit = OrbitSpec(500e3, 1.0, satellite_count=2)
        with pytest.raises(ValueError):
            satellite_position_eci(orbit, 2, 0.0)

    def test_negative_index_rejected(self, bremen_gs):
        # -1 must not wrap around to the orbit's last satellite
        orbit = OrbitSpec(500e3, 1.0, satellite_count=4)
        with pytest.raises(ValueError):
            satellite_position_eci(orbit, -1, 0.0)
        with pytest.raises(ValueError):
            max_pass_distance(Pass(0.0, 10.0, 0.0), orbit, -1, bremen_gs)


class TestGroundStationPosition:
    def test_frame_convention(self):
        gs = GroundStation(0.0, 0.0, 0.1)
        np.testing.assert_allclose(
            ground_station_position_eci(gs, 0.0), [EARTH.r_e, 0.0, 0.0], atol=1e-9
        )

    def test_sidereal_day_periodicity(self):
        gs = GroundStation(0.7, 1.1, 0.1)
        day = 2 * math.pi / EARTH.omega_e
        np.testing.assert_allclose(
            ground_station_position_eci(gs, day),
            ground_station_position_eci(gs, 0.0),
            rtol=1e-9,
        )

    @settings(max_examples=30, deadline=None)
    @given(lat=st.floats(-math.pi / 2, math.pi / 2), t=st.floats(0.0, 1e6))
    def test_surface_radius(self, lat, t):
        gs = GroundStation(lat, 0.3, 0.1)
        pos = ground_station_position_eci(gs, t)
        assert np.linalg.norm(pos) == pytest.approx(EARTH.r_e, rel=1e-12)


class TestElevationAndVisibility:
    def test_zenith(self):
        gs_pos = np.array([EARTH.r_e, 0.0, 0.0])
        assert elevation_angle(2.0 * gs_pos, gs_pos) == pytest.approx(math.pi / 2)

    def test_horizon(self):
        gs_pos = np.array([EARTH.r_e, 0.0, 0.0])
        sat_pos = gs_pos + np.array([0.0, 500e3, 0.0])  # LOS perpendicular to zenith
        assert elevation_angle(sat_pos, gs_pos) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_negative(self):
        gs_pos = np.array([EARTH.r_e, 0.0, 0.0])
        assert elevation_angle(-2.0 * gs_pos, gs_pos) < 0.0

    def test_coincident_rejected(self):
        p = np.array([EARTH.r_e, 0.0, 0.0])
        with pytest.raises(ValueError):
            elevation_angle(p, p)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(EARTH.r_e + 200e3, 1e9),
        st.floats(-math.pi / 2, math.pi / 2), st.floats(0.0, 2 * math.pi),
        st.floats(-math.pi / 2, math.pi / 2), st.floats(0.0, 2 * math.pi),
    ), min_size=1, max_size=50))
    def test_kernel_equals_stacked_elevation(self, rows):
        # satellites from LEO out to 10^6 km, stations anywhere on the sphere
        def point(r, lat, lon):
            return [r * math.cos(lat) * math.cos(lon),
                    r * math.cos(lat) * math.sin(lon), r * math.sin(lat)]

        sat = np.array([point(r, a, b) for r, a, b, _, _ in rows])
        gs = np.array([point(EARTH.r_e, c, d) for *_, c, d in rows])
        expected = stacked_elevation(sat, gs).tobytes()
        assert orbital._elevation(*sat.T, *gs.T).tobytes() == expected
        assert elevation_angle(sat, gs).tobytes() == expected

    def test_visibility_closed_boundary(self):
        # the planner's visibility test: a satellite exactly at the mask is
        # visible, and one ulp of mask above its elevation it is not
        terms = orbital._orbit_terms(OrbitSpec(1000e3, 0.3), 0)
        t = 60.0
        elev = float(orbital._elevation(*orbital._position(terms, t),
                                        *orbital._station(GroundStation(0.0, 0.0, 0.0), t)))
        assert 0.0 < elev < math.pi / 2
        assert orbital._visible(terms, GroundStation(0.0, 0.0, elev), t)
        assert not orbital._visible(
            terms, GroundStation(0.0, 0.0, float(np.nextafter(elev, np.inf))), t)

    def test_zenith_visible_antipodal_not(self):
        # at t=0 an equatorial satellite at phase 0 is above the station at
        # (0, 0), and one at phase pi on the far side of the Earth
        gs = GroundStation(0.0, 0.0, math.radians(10.0))
        zenith = orbital._orbit_terms(OrbitSpec(500e3, 0.0), 0)
        antipodal = orbital._orbit_terms(OrbitSpec(500e3, 0.0, 0.0, math.pi), 0)
        assert orbital._visible(zenith, gs, 0.0)
        assert not orbital._visible(antipodal, gs, 0.0)


class TestSlantRange:
    """The planner's slant range, from orbit terms and a time."""

    GS = GroundStation(0.0, 0.0, 0.0)

    def test_zenith_distance(self):
        terms = orbital._orbit_terms(OrbitSpec(500e3, 0.0), 0)
        assert orbital._slant_range(terms, self.GS, 0.0) == pytest.approx(500e3)

    def test_coincident_zero(self):
        # a satellite on the Earth's surface, at the station at t=0
        terms = orbital._OrbitTerms(r=EARTH.r_e, n=0.0, u0=0.0, co=1.0, so=0.0,
                                    si=0.0, so_ci=0.0, co_ci=1.0)
        assert orbital._slant_range(terms, self.GS, 0.0) == 0.0

    def test_horizon_right_triangle(self):
        h = 500e3
        r, R = EARTH.r_e, EARTH.r_e + h
        # satellite at elevation 0: LOS tangent, right angle at the station
        d = math.sqrt(R**2 - r**2)
        terms = orbital._orbit_terms(OrbitSpec(h, 0.0, 0.0, math.acos(r / R)), 0)
        sat_xyz, gs_xyz = orbital._position(terms, 0.0), orbital._station(self.GS, 0.0)
        assert float(orbital._elevation(*sat_xyz, *gs_xyz)) == pytest.approx(0.0, abs=1e-12)
        assert orbital._slant_range(terms, self.GS, 0.0) == pytest.approx(d)

    @settings(max_examples=100, deadline=None)
    @given(orbit=far_orbit_specs, gs=stations,
           t=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
    def test_equals_stacked_slant_range(self, orbit, gs, t):
        t = np.array(t)
        expected = stacked_slant_range(satellite_position_eci(orbit, 0, t),
                                       ground_station_position_eci(gs, t))
        terms = orbital._orbit_terms(orbit, 0)
        assert orbital._slant_range(terms, gs, t).tobytes() == expected.tobytes()


class TestContactPlan:
    def test_bremen_single_sat_pass_count(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        assert 3 <= len(plan.passes[0]) <= 8

    def test_matches_brute_force_scan(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0), raan_rad=0.5)
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        oracle = brute_force_passes(orbit, 0, bremen_gs, 86400.0, 1.0)
        assert len(plan.passes[0]) == len(oracle)
        for p, (rise_grid, set_grid) in zip(plan.passes[0], oracle):
            assert abs(p.rise_s - rise_grid) <= 1.0
            assert abs(p.set_s - set_grid) <= 1.0

    def test_refined_instants_bracket_the_mask(self, bremen_gs):
        from satfl.orbital import (
            elevation_angle as elev,
            ground_station_position_eci as gpos,
            satellite_position_eci as spos,
        )
        orbit = OrbitSpec(2000e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        alpha = bremen_gs.min_elevation_rad
        eps = 0.1
        for p in plan.passes[0]:
            def e(t):
                return elev(spos(orbit, 0, t), gpos(bremen_gs, t))
            assert e(p.rise_s + eps) >= alpha
            assert e(p.rise_s - eps) < alpha
            assert e(p.set_s - eps) >= alpha
            assert e(p.set_s + eps) < alpha

    def test_polar_station_equatorial_orbit_no_passes(self):
        gs = GroundStation(math.pi / 2, 0.0, math.radians(10.0))
        orbit = OrbitSpec(500e3, 0.0)
        plan = compute_contact_plan([orbit], gs, 86400.0)
        assert plan.passes[0] == []

    def test_horizon_inside_pass_clips_it(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        first = compute_contact_plan([orbit], bremen_gs, 86400.0).passes[0][0]
        mid = 0.5 * (first.rise_s + first.set_s)
        passes = compute_contact_plan([orbit], bremen_gs, mid).passes[0]
        assert [(p.rise_s, p.set_s) for p in passes] == [(first.rise_s, mid)]

    @pytest.mark.parametrize("horizon", [
        math.nextafter(86400.0, 0.0), math.nextafter(86400.0, math.inf),
        math.nextafter(13670.0, 0.0), math.nextafter(13670.0, math.inf),
        math.nextafter(10.0, math.inf), 5e-324,
    ])
    def test_last_grid_point_is_the_horizon(self, bremen_gs, horizon):
        # one ulp either side of a multiple of the 10 s step, and the
        # smallest horizon: the grid ends at its first point at or past the
        # horizon, held to it. The satellite is in view over the whole
        # horizon, so its one pass is clipped at exactly the horizon and
        # priced at the mask range
        last = orbital._last_index(horizon)
        assert (last - 1) * 10.0 < horizon <= last * 10.0
        orbit = OrbitSpec(1e9, math.pi / 2, 0.0, math.pi / 2)
        passes = compute_contact_plan([orbit], bremen_gs, horizon).passes[0]
        r, alpha = EARTH.r_e + orbit.altitude_m, bremen_gs.min_elevation_rad
        mask_range = math.sqrt(r * r - (EARTH.r_e * math.cos(alpha)) ** 2) \
            - EARTH.r_e * math.sin(alpha)
        assert passes == [Pass(0.0, horizon, mask_range)]

    @settings(max_examples=500, deadline=None)
    @given(horizon=st.one_of(
        st.floats(0.0, 1e15, exclude_min=True),
        st.builds(ulps_from, st.integers(0, 10**14).map(lambda m: 10.0 * m),
                  st.integers(-2, 2)).filter(lambda h: h > 0.0)))
    @example(horizon=5e-324)
    @example(horizon=2.5e-323)
    @example(horizon=3e-323)
    def test_last_index_equals_repaired_quotient(self, horizon):
        # at the fixed 10 s step the quotient's ceiling needs no repair
        assert orbital._last_index(horizon) == repaired_last_index(10.0, horizon)

    def test_gaps_differ_from_orbital_period(self, bremen_gs):
        # Earth rotation makes successive same-satellite revisit gaps uneven
        orbit = OrbitSpec(2000e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        rises = [p.rise_s for p in plan.passes[0]]
        gaps = np.diff(rises)
        period = orbital_period(2000e3)
        assert len(set(np.round(gaps).tolist())) >= 2
        assert any(abs(g - period) > 60.0 for g in gaps)


class TestBatchedRefinement:
    @settings(max_examples=25, deadline=None)
    @given(
        h=st.floats(300e3, 2500e3),
        inc=st.floats(0.0, math.pi),
        raan=st.floats(0.0, 2 * math.pi),
        phase=st.floats(0.0, 2 * math.pi),
    )
    def test_equals_scalar_bisection(self, bremen_gs, h, inc, raan, phase):
        orbit = OrbitSpec(h, inc, raan, phase)
        expected = scalar_reference_passes(orbit, bremen_gs, 86400.0)
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        assert [(p.rise_s, p.set_s) for p in plan.passes[0]] == expected

    def test_narrow_last_cell_equals_scalar_bisection(self, bremen_gs):
        # end the horizon a few seconds after a set so that the set's
        # bracket is the last grid cell, narrower than the 10 s step, while
        # the other brackets of the same satellite keep the full step
        orbit = OrbitSpec(500e3, math.radians(80.0))
        set_s = compute_contact_plan([orbit], bremen_gs, 86400.0).passes[0][2].set_s
        cell_start = 10.0 * math.floor(set_s / 10.0)
        horizon = 0.5 * (set_s + cell_start + 10.0)
        assert cell_start < set_s < horizon < cell_start + 10.0
        plan = compute_contact_plan([orbit], bremen_gs, horizon)
        assert len(plan.passes[0]) == 3
        expected = scalar_reference_passes(orbit, bremen_gs, horizon)
        assert [(p.rise_s, p.set_s) for p in plan.passes[0]] == expected


class TestWindowedScan:
    """The windowed scan and the constellation-wide bisection and pricing
    give the full-grid planner's bytes."""

    @settings(max_examples=150, deadline=None)
    @given(
        orbits=st.lists(orbit_specs, min_size=1, max_size=3),
        gs=stations,
        horizon=st.floats(1000.0, 30000.0),
    )
    def test_equals_full_grid_planner(self, orbits, gs, horizon):
        expected = reference_contact_plan(orbits, gs, horizon)
        plan = compute_contact_plan(orbits, gs, horizon)
        assert [[(p.rise_s, p.set_s) for p in ps] for ps in plan.passes] == expected
        assert [[p.max_distance_m for p in ps] for ps in plan.passes] == (
            reference_max_distances(expected, orbits, gs, horizon))

    @settings(max_examples=60, deadline=None)
    @given(
        orbits=st.lists(orbit_specs, min_size=1, max_size=3),
        gs=stations,
        horizon=st.floats(1000.0, 30000.0),
    )
    def test_skipped_windows_are_invisible(self, orbits, gs, horizon):
        # every window the bound skips is below the mask on a 1 s grid,
        # not only at its coarse grid points
        grid = coarse_grid(horizon)
        visible, kept = window_bound_at_every_end(orbits, gs, 10.0, horizon)
        ends = window_ends(grid)
        n_sats = sum(o.satellite_count for o in orbits)
        assert kept.shape == (n_sats, len(ends) - 1)
        assert visible.shape == (n_sats, len(ends))
        for k, (orbit, j) in enumerate(flatten_constellation(orbits)):
            assert np.array_equal(visible[k], reference_elevation(
                orbit, j, gs, grid[ends]) >= gs.min_elevation_rad)
            for w in np.flatnonzero(~kept[k]):
                a, b = grid[ends[w]], grid[ends[w + 1]]
                t = np.append(np.arange(a, b, 1.0), b)
                assert np.all(reference_elevation(orbit, j, gs, t)
                              < gs.min_elevation_rad)

    @settings(max_examples=150, deadline=None)
    @given(
        orbits=st.lists(far_orbit_specs, min_size=1, max_size=3),
        gs=st.builds(
            GroundStation,
            latitude_rad=st.floats(-math.pi / 2, math.pi / 2),
            longitude_rad=st.floats(0.0, 2 * math.pi),
            min_elevation_rad=st.one_of(
                st.sampled_from([0.0, 1e-9, math.radians(86.0)]),
                st.floats(0.0, math.radians(86.0))),
        ),
        step=st.floats(0.01, 10.0, exclude_max=True),
        cells=st.integers(1, 3000),
        last=st.floats(0.001, 1.0),
    )
    def test_visible_ends_lie_between_kept_windows(self, orbits, gs, step, cells, last):
        # the scan reads changes off kept windows only; that is complete
        # because every visible window end has a kept window on each side,
        # for grazing masks, far orbits, fine steps and narrow last windows
        visible, kept = window_bound_at_every_end(orbits, gs, step,
                                                  step * (cells - 1 + last))
        assert unkept_visible_ends(kept, visible).size == 0

    # at t=0 at the zenith of the bremen station: inclined at the station's
    # latitude, at its northernmost point above the station's longitude;
    # its first three passes end at about 231, 6127 and 11942 s
    ZENITH_AT_0 = OrbitSpec(500e3, math.radians(53.07), math.radians(278.8),
                            math.radians(90.0))

    @pytest.mark.parametrize("orbit, horizon, case", [
        (ZENITH_AT_0, 86400.0, "adjacent kept windows"),
        (ZENITH_AT_0, 86400.0, "a kept window at t=0"),
        (ZENITH_AT_0, 6200.0, "a narrow last window holding a set"),
        (OrbitSpec(1e9, math.pi / 2, 0.0, math.pi / 2), 86400.0, "always visible"),
        (OrbitSpec(500e3, 0.0), 86400.0, "never visible"),
        (ZENITH_AT_0, 55.0, "a horizon shorter than one window"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    # one window per block puts t=0 and the horizon in different blocks
    @pytest.mark.parametrize("block_cells", [orbital._BLOCK_CELLS, 1],
                             ids=["default blocks", "one window per block"])
    def test_run_boundaries_equal_full_grid_planner(self, bremen_gs, orbit, horizon,
                                                    case, block_cells, monkeypatch):
        grid = coarse_grid(horizon)
        ends = window_ends(grid)
        kept = window_bound_at_every_end([orbit], bremen_gs, 10.0, horizon)[1][0]
        monkeypatch.setattr(orbital, "_BLOCK_CELLS", block_cells)
        plan = compute_contact_plan([orbit], bremen_gs, horizon)
        passes = [(p.rise_s, p.set_s) for p in plan.passes[0]]
        narrow = ends[-1] - ends[-2] < orbital._WINDOW_STEPS
        assert {
            "adjacent kept windows": (kept[:-1] & kept[1:]).any(),
            "a kept window at t=0": kept[0] and passes[0][0] == 0.0,
            "a narrow last window holding a set":
                narrow and kept[-1] and grid[ends[-2]] < passes[-1][1] < horizon,
            "always visible": kept.all() and passes == [(0.0, horizon)],
            "never visible": not kept.any() and passes == [],
            "a horizon shorter than one window": len(ends) == 2 and narrow,
        }[case]
        expected = reference_contact_plan([orbit], bremen_gs, horizon)
        assert [passes] == expected
        assert [[p.max_distance_m for p in plan.passes[0]]] == (
            reference_max_distances(expected, [orbit], bremen_gs, horizon))

    def test_smallest_blocks_give_the_same_plan(self, bremen_scenario, monkeypatch):
        # the bundled orbits over three days: 21 600 (satellite, window) cells
        orbits = bremen_scenario.orbit_specs()
        gs = bremen_scenario.ground_station()
        horizon = 3 * 86400.0
        windows = int(math.ceil(horizon / 10.0 / orbital._WINDOW_STEPS))
        assert len(orbital._blocks(windows, len(orbits))) > 1
        default = compute_contact_plan(orbits, gs, horizon)
        monkeypatch.setattr(orbital, "_BLOCK_CELLS", 1)
        assert len(orbital._blocks(windows, len(orbits))) == windows
        assert compute_contact_plan(orbits, gs, horizon) == default
        assert sum(default.pass_counts()) > 150

    @pytest.mark.parametrize("sats, horizon", [(1, 1e7), (10, 3 * 86400.0)],
                             ids=["one orbit over 1e7 s", "ten orbits over 3 days"])
    def test_station_is_evaluated_at_kept_windows_only(self, bremen_scenario, monkeypatch,
                                                      sats, horizon):
        # the scan evaluates the station at the inner points of each window
        # that some satellite keeps, and at no other inner point; its calls
        # are the 2-D (window, inner point) ones, the bound's are 1-D
        orbits, gs = bremen_scenario.orbit_specs()[:sats], bremen_scenario.ground_station()
        _, kept = window_bound_at_every_end(orbits, gs, 10.0, horizon)
        used = int(kept.any(axis=0).sum())
        assert 0 < used < kept.shape[1] // 2
        points, station = [], orbital._station

        def counted(gs, t):
            if np.ndim(t) == 2:
                points.append(np.size(t))
            return station(gs, t)
        monkeypatch.setattr(orbital, "_station", counted)
        compute_contact_plan(orbits, gs, horizon)
        assert sum(points) == (orbital._WINDOW_STEPS - 1) * used

    def test_plan_memory_follows_windows_not_steps(self, bremen_scenario):
        # one 500 km orbit over 1e8 s, 1e7 grid steps: the plan keeps its
        # passes and one block of windows at a time
        orbit, gs = bremen_scenario.orbit_specs()[0], bremen_scenario.ground_station()
        tracemalloc.start()
        try:
            plan = compute_contact_plan([orbit], gs, 1e8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(plan.pass_counts()) > 4000
        assert peak < 32 * 2**20

    def test_mask_touched_at_horizon_is_clipped(self):
        # A retrograde equatorial orbit over an equatorial station closes
        # the central angle at exactly n + omega_e, so the bound is tight:
        # with the satellite reaching the mask at the horizon, the last
        # window's bound equals the visibility limit up to rounding. The
        # phases straddle that instant, and each must get a pass clipped at
        # the horizon exactly when the full grid sees the satellite there.
        gs = GroundStation(0.0, 0.0, math.radians(10.0))
        h, horizon = 500e3, 1195.0
        r = EARTH.r_e + h
        lam = math.acos(EARTH.r_e * math.cos(gs.min_elevation_rad) / r) \
            - gs.min_elevation_rad
        rate = 2.0 * math.pi / orbital_period(h) + EARTH.omega_e
        phase = 2.0 * math.pi - lam - rate * horizon
        clipped = 0
        for k in range(-40, 41):
            orbit = OrbitSpec(h, math.pi, 0.0, phase + k * 2e-16)
            expected = reference_contact_plan([orbit], gs, horizon)
            plan = compute_contact_plan([orbit], gs, horizon)
            assert [[(p.rise_s, p.set_s) for p in ps] for ps in plan.passes] \
                == expected
            clipped += any(p.set_s == horizon for p in plan.passes[0])
        assert 0 < clipped < 81


class TestMaxPassDistance:
    def test_equals_dense_sampling_on_bremen(self, bremen_scenario):
        orbits = bremen_scenario.orbit_specs()
        gs = bremen_scenario.ground_station()
        plan = compute_contact_plan(orbits, gs, bremen_scenario.horizon_s)
        checked = 0
        for (orbit, j), passes in zip(flatten_constellation(orbits), plan.passes):
            for p in passes:
                assert max_pass_distance(p, orbit, j, gs) == dense_max_distance(
                    p, orbit, j, gs
                )
                checked += 1
        assert checked == 63

    def test_clipped_passes_priced_at_their_ends(self, bremen_gs):
        # the first phase (in 5 degree steps) that puts the satellite in view
        # at t=0, and a horizon in the middle of its second pass
        for deg in range(0, 360, 5):
            orbit = OrbitSpec(500e3, math.radians(80.0), 0.0, math.radians(deg))
            passes = compute_contact_plan([orbit], bremen_gs, 86400.0).passes[0]
            if passes[0].rise_s == 0.0:
                break
        horizon = 0.5 * (passes[1].rise_s + passes[1].set_s)
        passes = compute_contact_plan([orbit], bremen_gs, horizon).passes[0]
        assert passes[0].rise_s == 0.0 and passes[-1].set_s == horizon
        for p in (passes[0], passes[-1]):
            assert p.max_distance_m == max_pass_distance(p, orbit, 0, bremen_gs) \
                == dense_max_distance(p, orbit, 0, bremen_gs)

    def test_endpoints_symmetric_and_dominate_midpoint(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        p = plan.passes[0][0]
        dmax = max_pass_distance(p, orbit, 0, bremen_gs)
        from satfl.orbital import ground_station_position_eci, satellite_position_eci
        mid = 0.5 * (p.rise_s + p.set_s)
        d_mid = stacked_slant_range(
            satellite_position_eci(orbit, 0, mid),
            ground_station_position_eci(bremen_gs, mid),
        )
        assert dmax >= d_mid
        d_rise = stacked_slant_range(
            satellite_position_eci(orbit, 0, p.rise_s),
            ground_station_position_eci(bremen_gs, p.rise_s),
        )
        assert dmax == pytest.approx(d_rise, rel=5e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        orbits=st.lists(far_orbit_specs, min_size=1, max_size=3),
        gs=stations,
        horizon=st.floats(1000.0, 30000.0),
    )
    # in view over the whole day, and lower in the sky at t = 40 603 s than
    # at either end
    @example(orbits=[OrbitSpec(1e9, math.pi / 2, 0.0, math.radians(60.0))],
             gs=GroundStation(math.radians(53.07), math.radians(8.8), math.radians(10.0)),
             horizon=86400.0)
    def test_priced_at_least_the_dense_maximum(self, orbits, gs, horizon):
        plan = compute_contact_plan(orbits, gs, horizon)
        for (orbit, j), passes in zip(flatten_constellation(orbits), plan.passes):
            for p in passes:
                assert p.max_distance_m >= dense_max_distance(p, orbit, j, gs)

    def test_matches_mask_elevation_closed_form(self, bremen_gs):
        # slant range at the 10 deg elevation mask for h = 500 km:
        # r_E*(sqrt(((r_E+h)/r_E)^2 - cos^2(a)) - sin(a)) = 1694567.2 m
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0)
        p = max(plan.passes[0], key=lambda q: q.duration_s)
        dmax = max_pass_distance(p, orbit, 0, bremen_gs)
        assert dmax == pytest.approx(1694567.2211546786, rel=2e-3)
