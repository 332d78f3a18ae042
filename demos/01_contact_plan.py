"""Contact-plan walkthrough for the bundled Bremen scenario.

Computes one day of visibility windows for the 10-satellite constellation
(five satellites at 500 km, five at 2000 km, one ground station in Bremen)
and prints per-satellite pass tables plus an hour-by-hour ASCII timeline.
"""

import numpy as np

from satfl import bundled_scenario_path, load_scenario
from satfl.orbital import (
    compute_contact_plan,
    flatten_constellation,
    orbital_period,
)

scenario = load_scenario(bundled_scenario_path())
orbits = scenario.orbit_specs()
gs = scenario.ground_station()

print(f"constellation: {scenario.satellite_count} satellites, "
      f"ground station at {scenario.gs_latitude_deg:.2f} N, "
      f"{scenario.gs_longitude_deg:.2f} E, "
      f"elevation mask {scenario.gs_min_elevation_deg:.0f} deg")
print(f"horizon: {scenario.horizon_s / 3600:.0f} h\n")

plan = compute_contact_plan(orbits, gs, scenario.horizon_s)
flat = flatten_constellation(orbits)

# ---------------------------------------------------------------------------
# Per-satellite pass summary
# ---------------------------------------------------------------------------
print(f"{'sat':>3} {'alt km':>7} {'passes':>6} {'mean dur s':>10} "
      f"{'longest s':>9} {'max range km':>12}")
for k, (orbit, _) in enumerate(flat):
    passes = plan.passes[k]
    durations = [p.duration_s for p in passes]
    dmax = max(p.max_distance_m for p in passes)
    print(f"{k:>3} {orbit.altitude_m / 1e3:>7.0f} {len(passes):>6} "
          f"{np.mean(durations):>10.1f} {max(durations):>9.1f} "
          f"{dmax / 1e3:>12.1f}")

# ---------------------------------------------------------------------------
# Why revisit gaps are uneven: Earth rotates under the orbit
# ---------------------------------------------------------------------------
print("\nrevisit gaps vs orbital period (satellite 0, 500 km):")
period = orbital_period(flat[0][0].altitude_m)
rises = [p.rise_s for p in plan.passes[0]]
for gap in np.diff(rises):
    print(f"  gap {gap:>8.1f} s  ({gap / period:.2f} orbital periods)")

# ---------------------------------------------------------------------------
# ASCII timeline, one row per satellite, one column per 15 minutes
# ---------------------------------------------------------------------------
print("\nvisibility timeline (each column = 15 min, '#' = in view):")
cols = int(scenario.horizon_s // 900)
for k, passes in enumerate(plan.passes):
    row = []
    for c in range(cols):
        t0, t1 = c * 900.0, (c + 1) * 900.0
        on = any(p.rise_s < t1 and p.set_s > t0 for p in passes)
        row.append("#" if on else ".")
    print(f"  sat {k}: {''.join(row)}")
