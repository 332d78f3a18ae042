import math

import numpy as np
import pytest

from satfl import bundled_scenario_path, load_scenario
from satfl.orbital import (
    GroundStation,
    OrbitSpec,
    elevation_angle,
    ground_station_position_eci,
    satellite_position_eci,
)


@pytest.fixture(scope="session")
def bremen_scenario():
    return load_scenario(bundled_scenario_path())


@pytest.fixture(scope="session")
def bremen_gs():
    return GroundStation(
        latitude_rad=math.radians(53.07),
        longitude_rad=math.radians(8.8),
        min_elevation_rad=math.radians(10.0),
    )


def reference_softmax(logits):
    """Softmax over the rows of a (n, c) array of logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_loss(learner, params, X, y):
    """Mean cross-entropy of a softmax learner's predictions for labels y,
    the loss whose gradient the learner's `gradient` gives."""
    p = reference_softmax(learner.logits(params, X))
    return float(-np.mean(np.log(p[np.arange(len(y)), y] + 1e-300)))


def brute_force_passes(orbit, sat_index, gs, horizon_s, step_s=1.0):
    """Independent pass oracle: dense visibility scan, no refinement.

    Groups consecutive visible seconds into passes and reports the grid
    instants bracketing each rise and set.
    """
    t = np.arange(0.0, horizon_s + step_s / 2, step_s)
    t[-1] = min(t[-1], horizon_s)
    sp = satellite_position_eci(orbit, sat_index, t)
    gp = ground_station_position_eci(gs, t)
    visible = elevation_angle(sp, gp) >= gs.min_elevation_rad
    assert not visible[0] and not visible[-1]
    edges = np.flatnonzero(np.diff(visible.astype(np.int8)))
    rises = t[edges[0::2]]
    sets = t[edges[1::2]]
    return list(zip(rises, sets))
