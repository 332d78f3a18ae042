"""The reference oracles at constellation scale, on W2.

W2 is the shell of 20 planes x 10 satellites that perfbench's `shell_week`
workload plans one satellite at a time, here run as one scenario: 7 days,
with learner.samples_per_class 2000. Its contact plan must equal the
full-grid planner's (`tests/test_orbital.py`), and every visible window
end of its scan must lie between kept windows, the invariant that lets the
scan read only kept windows. Under every policy the run must pass the
oracles of `tests/test_properties.py`: the reference scheduler, the run
checks and the naive replay, with equal rows and bitwise-equal final models.

    PYTHONPATH=src python3 tests/w2_oracles.py --seed 0

The seed sets both the shell's phase offset and the scenario seed. pytest
does not collect this script. It prints the contact plan's wall time, the
plan's `tracemalloc` peak from a second, traced plan call (so the timed
call runs untraced), the process's peak RSS right after `prepare`, and
each policy's replay wall time with the peak RSS right after it; all
three replays run before any oracle, so those peaks show what the replays
keep, not what the oracles allocate. It fails if the traced peak reaches
8 MiB. On a 2-vCPU machine at one OpenBLAS thread, at seeds 0 and 7, the
plan took 0.15-0.22 s with a traced peak of 3.6 MiB; the replays took
0.51-0.74 s under fedsat, 1.23-1.42 s under fedsatschedule and
0.15-0.18 s under fedavg_sync; each seed took 13-14 s; and the peak RSS
read 65 MB after `prepare`, then 70, 74 and 75 MB after the three
replays.
"""

from __future__ import annotations

import argparse
import random
import resource
import sys
import time
import tracemalloc

import numpy as np
import yaml

from satfl import bundled_scenario_path
from satfl.engine import prepare, replay
from satfl.orbital import compute_contact_plan
from satfl.scenario import Scenario, scenario_from_dict

from test_orbital import (reference_contact_plan, reference_max_distances,
                          unkept_visible_ends, window_bound_at_every_end)
from test_properties import POLICIES, check_run, reference_replay, reference_schedule


def w2_scenario(seed: int) -> Scenario:
    """The bundled scenario over the shell: altitudes alternate 500/2000 km
    by plane, inclination 80 deg, RAANs 18 deg apart, in-plane phases 36 deg
    apart with odd planes offset by 18 deg, plus a shell-wide phase offset
    drawn from the seed."""
    offset = random.Random(seed).uniform(0.0, 36.0)
    doc = yaml.safe_load(bundled_scenario_path().read_text())
    doc["constellation"]["orbits"] = [{
        "altitude_m": 500e3 if plane % 2 == 0 else 2000e3,
        "inclination_deg": 80.0,
        "raan_deg": 18.0 * plane,
        "initial_arg_latitude_deg": offset + 18.0 * (plane % 2) + 36.0 * j,
        "satellite_count": 1,
    } for plane in range(20) for j in range(10)]
    doc["learner"]["samples_per_class"] = 2000
    doc["sim"].update(horizon_s=7 * 86400.0, seed=seed)
    return scenario_from_dict(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args(argv).seed

    start = time.perf_counter()
    scenario = w2_scenario(seed)
    orbits, gs = scenario.orbit_specs(), scenario.ground_station()
    plan_start = time.perf_counter()
    plan = compute_contact_plan(orbits, gs, scenario.horizon_s)
    plan_s = time.perf_counter() - plan_start
    tracemalloc.start()
    assert compute_contact_plan(orbits, gs, scenario.horizon_s) == plan
    plan_peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    prep = prepare(scenario)
    assert prep.plan == plan
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"seed {seed}: contact plan in {plan_s:.2f} s, traced peak "
          f"{plan_peak_mib:.1f} MiB; peak RSS after prepare {peak_mb:.0f} MB", flush=True)
    # the plan keeps one block of windows at a time besides its changes and
    # passes; a (satellite, grid point) mask alone would take 11.5 MiB here
    assert plan_peak_mib < 8, f"plan traced peak {plan_peak_mib:.1f} MiB"

    # the replays run before any oracle, so that the peak RSS after each
    # shows what the replays hold, not what the oracles allocate
    results = {}
    for policy in POLICIES:
        replay_start = time.perf_counter()
        results[policy] = replay(prep, policy)
        replay_s = time.perf_counter() - replay_start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"seed {seed}: {policy} replayed in {replay_s:.2f} s; peak RSS after "
              f"the replay {peak_mb:.0f} MB", flush=True)

    expected = reference_contact_plan(orbits, gs, scenario.horizon_s, 10.0)
    assert [[(p.rise_s, p.set_s) for p in ps] for ps in plan.passes] == expected
    assert [[p.max_distance_m for p in ps] for ps in plan.passes] == (
        reference_max_distances(expected, orbits, gs, scenario.horizon_s))
    visible, kept = window_bound_at_every_end(orbits, gs, 10.0, scenario.horizon_s)
    assert unkept_visible_ends(kept, visible).size == 0
    print(f"seed {seed}: plan of {sum(map(len, plan.passes))} passes equals the "
          f"full-grid planner, and its {int(visible.sum())} visible window ends lie "
          f"between kept windows ({time.perf_counter() - start:.1f} s)", flush=True)

    for policy, r in results.items():
        start = time.perf_counter()
        assert r.schedule == reference_schedule(plan, policy, scenario.train_time_s, prep.comm_s)
        check_run(r, policy, None)
        rows, final_params = reference_replay(r)
        assert r.rows == rows
        assert np.array_equal(r.final_params, final_params)
        print(f"seed {seed}: {policy}, {len(r.upload_rows())} uploads, passes the oracles "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
