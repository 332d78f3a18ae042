"""Link-budget walkthrough: from slant range to model exchange time.

Sweeps the satellite-to-ground distance through typical LEO slant ranges
and shows how free-space path loss, SNR, Shannon rate and the resulting
model up/download time evolve. The last section prices the bundled
scenario's actual model on its worst-case pass geometry.
"""

import math

import numpy as np

from satfl import bundled_scenario_path, load_scenario
from satfl.learning import WIRE_BITS_PER_PARAM, make_learner
from satfl.link import comm_time, data_rate, path_loss, snr
from satfl.orbital import compute_contact_plan, flatten_constellation

scenario = load_scenario(bundled_scenario_path())
budget = scenario.link_budget()

print(f"transmit power {scenario.power_dbm:.0f} dBm, antenna gains "
      f"{scenario.gain_sat_dbi:.2f} dBi each, bandwidth "
      f"{scenario.bandwidth_hz / 1e6:.0f} MHz, carrier "
      f"{scenario.carrier_hz / 1e9:.1f} GHz\n")

# ---------------------------------------------------------------------------
# Distance sweep
# ---------------------------------------------------------------------------
learner = make_learner(scenario.learner_kind, scenario.classes,
                       scenario.feature_dim, scenario.hidden)
bits = WIRE_BITS_PER_PARAM * learner.param_dim
print(f"model size: {bits:.0f} bits "
      f"({bits / 8:.0f} bytes, 32-bit parameters)\n")

print(f"{'range km':>9} {'FSPL dB':>8} {'SNR dB':>7} {'rate Mbit/s':>11} "
      f"{'exchange ms':>11}")
for d in np.array([500e3, 1000e3, 1690e3, 2500e3, 3900e3]):
    loss_db = 10.0 * math.log10(path_loss(d, budget.carrier_hz))
    gamma = snr(budget, d)
    rate = data_rate(budget, gamma)
    t = comm_time(bits, rate, d)
    print(f"{d / 1e3:>9.0f} {loss_db:>8.1f} {10.0 * math.log10(gamma):>7.1f} "
          f"{rate / 1e6:>11.2f} {t * 1e3:>11.3f}")

# ---------------------------------------------------------------------------
# Worst-case exchange time per satellite on the bundled scenario
# ---------------------------------------------------------------------------
print("\nworst-pass exchange time per satellite (max range convention):")
orbits = scenario.orbit_specs()
gs = scenario.ground_station()
plan = compute_contact_plan(orbits, gs, scenario.horizon_s,
                            scenario.coarse_step_s)
for k, (orbit, _) in enumerate(flatten_constellation(orbits)):
    dmax = max(p.max_distance_m for p in plan.passes[k])
    rate = data_rate(budget, snr(budget, dmax))
    t = comm_time(bits, rate, dmax)
    print(f"  sat {k} ({orbit.altitude_m / 1e3:.0f} km): "
          f"{dmax / 1e3:>7.1f} km -> {t * 1e3:.3f} ms")
