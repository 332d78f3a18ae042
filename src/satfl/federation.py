"""The two aggregation rules, as pure functions of the global model.

The asynchronous rule applies each satellite's delta scaled by its data
share the moment the upload completes; the synchronous baseline waits for
one update from every satellite before averaging. Each rule returns a new
global model and changes none of its arguments.
"""

from __future__ import annotations

import numpy as np


def fedsat_aggregate(
    params: np.ndarray, alpha: float, prev_params: np.ndarray, new_params: np.ndarray
) -> np.ndarray:
    """Asynchronous update: w - alpha * (prev - new).

    alpha is the satellite's data share D_k / D. On a satellite's first
    upload, prev_params is the global model it first downloaded, which makes
    the single-satellite case reduce to plain sequential SGD.
    """
    if prev_params.shape != params.shape:
        raise ValueError("update dimension does not match the global model")
    return params - alpha * (prev_params - new_params)


def fedavg_sync_aggregate(
    params: np.ndarray, weights: dict[int, float], updates: dict[int, np.ndarray]
) -> np.ndarray:
    """Synchronous round: the weighted sum of one update per satellite, in
    the order of weights (satellite id -> D_k / D)."""
    missing = set(weights) - set(updates)
    if missing:
        raise ValueError(
            f"synchronous aggregation requires all satellites; missing {sorted(missing)}"
        )
    new = np.zeros_like(params)
    for k, alpha in weights.items():
        if updates[k].shape != params.shape:
            raise ValueError("update dimension does not match the global model")
        new += alpha * updates[k]
    return new
