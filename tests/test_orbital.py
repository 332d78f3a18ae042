import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satfl.errors import ScenarioError
from satfl.orbital import (
    EARTH,
    GroundStation,
    OrbitSpec,
    Pass,
    compute_contact_plan,
    flatten_constellation,
    elevation_angle,
    ground_station_position_eci,
    is_visible,
    max_pass_distance,
    orbital_period,
    satellite_position_eci,
    slant_range,
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


def scalar_reference_passes(orbit, gs, horizon_s, step_s=10.0, tol=0.1):
    """(rise, set) of satellite 0 from the planner's coarse grid, each
    crossing refined on its own by the scalar reference; None when the
    satellite is visible at a horizon endpoint."""
    grid = np.minimum(np.arange(int(math.ceil(horizon_s / step_s)) + 1) * step_s,
                      horizon_s)
    alpha = gs.min_elevation_rad
    visible = elevation_angle(satellite_position_eci(orbit, 0, grid),
                              ground_station_position_eci(gs, grid)) >= alpha
    if visible[0] or visible[-1]:
        return None
    changes = np.flatnonzero(np.diff(visible.astype(np.int8)))
    t = [scalar_refine_crossing(orbit, 0, gs, grid[i], grid[i + 1], alpha, tol)
         for i in changes]
    return list(zip(t[0::2], t[1::2]))


def dense_max_distance(pass_, orbit, sat_index, gs, sample_step_s=1.0):
    """Reference: largest slant range over a pass sampled at <= 1 s."""
    n = max(2, int(math.ceil(pass_.duration_s / sample_step_s)) + 1)
    times = np.linspace(pass_.rise_s, pass_.set_s, n)
    return float(np.max(slant_range(satellite_position_eci(orbit, sat_index, times),
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

    def test_visibility_closed_boundary(self):
        alpha = math.radians(10.0)
        gs = GroundStation(0.0, 0.0, alpha)
        gs_pos = np.array([EARTH.r_e, 0.0, 0.0])
        d = 1000e3
        sat_pos = gs_pos + d * np.array([math.sin(alpha), math.cos(alpha), 0.0])
        assert elevation_angle(sat_pos, gs_pos) == pytest.approx(alpha)
        assert is_visible(sat_pos, gs, gs_pos)

    def test_zenith_visible_antipodal_not(self):
        gs = GroundStation(0.0, 0.0, math.radians(10.0))
        gs_pos = np.array([EARTH.r_e, 0.0, 0.0])
        assert is_visible(2.0 * gs_pos, gs, gs_pos)
        assert not is_visible(-2.0 * gs_pos, gs, gs_pos)


class TestSlantRange:
    def test_zenith_distance(self):
        gs_pos = np.array([EARTH.r_e, 0.0, 0.0])
        sat_pos = np.array([EARTH.r_e + 500e3, 0.0, 0.0])
        assert slant_range(sat_pos, gs_pos) == pytest.approx(500e3)

    def test_coincident_zero(self):
        p = np.array([EARTH.r_e, 0.0, 0.0])
        assert slant_range(p, p) == 0.0

    def test_horizon_right_triangle(self):
        h = 500e3
        r, R = EARTH.r_e, EARTH.r_e + h
        gs_pos = np.array([r, 0.0, 0.0])
        # satellite at elevation 0: LOS tangent, right angle at the station
        d = math.sqrt(R**2 - r**2)
        sat_pos = gs_pos + d * np.array([0.0, 1.0, 0.0])
        assert np.linalg.norm(sat_pos) == pytest.approx(R)
        assert elevation_angle(sat_pos, gs_pos) == pytest.approx(0.0, abs=1e-12)
        assert slant_range(sat_pos, gs_pos) == pytest.approx(d)


class TestContactPlan:
    def test_bremen_single_sat_pass_count(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
        assert 3 <= len(plan.passes[0]) <= 8

    def test_matches_brute_force_scan(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0), raan_rad=0.5)
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
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
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
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
        plan = compute_contact_plan([orbit], gs, 86400.0, 10.0)
        assert plan.passes[0] == []

    def test_coarse_step_validated(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        with pytest.raises(ScenarioError):
            compute_contact_plan([orbit], bremen_gs, 86400.0, 60.0)
        with pytest.raises(ScenarioError):
            compute_contact_plan([orbit], bremen_gs, 86400.0, 0.0)

    def test_endpoint_inside_pass_rejected(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
        mid = 0.5 * (plan.passes[0][0].rise_s + plan.passes[0][0].set_s)
        with pytest.raises(ScenarioError):
            compute_contact_plan([orbit], bremen_gs, mid, 10.0)

    def test_gaps_differ_from_orbital_period(self, bremen_gs):
        # Earth rotation makes successive same-satellite revisit gaps uneven
        orbit = OrbitSpec(2000e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
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
        assume(expected is not None)
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
        assert [(p.rise_s, p.set_s) for p in plan.passes[0]] == expected

    def test_narrow_last_cell_equals_scalar_bisection(self, bremen_gs):
        # end the horizon a few seconds after a set so that the set's
        # bracket is the last grid cell, narrower than the 10 s step, while
        # the other brackets of the same satellite keep the full step
        orbit = OrbitSpec(500e3, math.radians(80.0))
        set_s = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0).passes[0][2].set_s
        cell_start = 10.0 * math.floor(set_s / 10.0)
        horizon = 0.5 * (set_s + cell_start + 10.0)
        assert cell_start < set_s < horizon < cell_start + 10.0
        plan = compute_contact_plan([orbit], bremen_gs, horizon, 10.0)
        assert len(plan.passes[0]) == 3
        expected = scalar_reference_passes(orbit, bremen_gs, horizon)
        assert [(p.rise_s, p.set_s) for p in plan.passes[0]] == expected


class TestMaxPassDistance:
    def test_equals_dense_sampling_on_bremen(self, bremen_scenario):
        orbits = bremen_scenario.orbit_specs()
        gs = bremen_scenario.ground_station()
        plan = compute_contact_plan(orbits, gs, bremen_scenario.horizon_s,
                                    bremen_scenario.coarse_step_s)
        checked = 0
        for (orbit, j), passes in zip(flatten_constellation(orbits), plan.passes):
            for p in passes:
                assert max_pass_distance(p, orbit, j, gs) == dense_max_distance(
                    p, orbit, j, gs
                )
                checked += 1
        assert checked == 63

    def test_endpoints_symmetric_and_dominate_midpoint(self, bremen_gs):
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
        p = plan.passes[0][0]
        dmax = max_pass_distance(p, orbit, 0, bremen_gs)
        from satfl.orbital import ground_station_position_eci, satellite_position_eci
        mid = 0.5 * (p.rise_s + p.set_s)
        d_mid = slant_range(
            satellite_position_eci(orbit, 0, mid),
            ground_station_position_eci(bremen_gs, mid),
        )
        assert dmax >= d_mid
        d_rise = slant_range(
            satellite_position_eci(orbit, 0, p.rise_s),
            ground_station_position_eci(bremen_gs, p.rise_s),
        )
        assert dmax == pytest.approx(d_rise, rel=5e-3)

    def test_matches_mask_elevation_closed_form(self, bremen_gs):
        # slant range at the 10 deg elevation mask for h = 500 km:
        # r_E*(sqrt(((r_E+h)/r_E)^2 - cos^2(a)) - sin(a)) = 1694567.2 m
        orbit = OrbitSpec(500e3, math.radians(80.0))
        plan = compute_contact_plan([orbit], bremen_gs, 86400.0, 10.0)
        p = max(plan.passes[0], key=lambda q: q.duration_s)
        dmax = max_pass_distance(p, orbit, 0, bremen_gs)
        assert dmax == pytest.approx(1694567.2211546786, rel=2e-3)
