"""Server/client model state and aggregation rules.

The asynchronous rule applies each satellite's delta scaled by its data
share the moment the upload completes; the synchronous baseline waits for
one update from every satellite before averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ServerState:
    """Ground-station side of the federation: global model and bookkeeping."""

    params: np.ndarray
    weights: dict[int, float]          # satellite id -> D_k / D
    epoch: int = 0

    def __post_init__(self):
        total = sum(self.weights.values())
        if self.weights and abs(total - 1.0) > 1e-9:
            raise ValueError(f"aggregation weights must sum to 1, got {total}")


def fedsat_aggregate(
    server: ServerState,
    satellite_id: int,
    prev_params: np.ndarray,
    new_params: np.ndarray,
) -> ServerState:
    """Asynchronous update: w <- w - alpha_k * (prev - new); epoch += 1.

    On a satellite's first upload, prev_params is the global model it first
    downloaded, which makes the single-satellite case reduce to plain
    sequential SGD.
    """
    if satellite_id not in server.weights:
        raise ValueError(f"satellite {satellite_id} is not registered")
    if prev_params.shape != server.params.shape:
        raise ValueError("update dimension does not match the global model")
    alpha = server.weights[satellite_id]
    server.params = server.params - alpha * (prev_params - new_params)
    server.epoch += 1
    return server


def fedavg_sync_aggregate(
    server: ServerState, updates: dict[int, np.ndarray]
) -> ServerState:
    """Synchronous round: weighted average of one update per satellite."""
    missing = set(server.weights) - set(updates)
    if missing:
        raise ValueError(
            f"synchronous aggregation requires all satellites; missing {sorted(missing)}"
        )
    new = np.zeros_like(server.params)
    for k, alpha in server.weights.items():
        if updates[k].shape != server.params.shape:
            raise ValueError("update dimension does not match the global model")
        new += alpha * updates[k]
    server.params = new
    server.epoch += 1
    return server

