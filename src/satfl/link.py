"""Free-space link budget: path loss, SNR, Shannon rate, exchange time.

All internal math is in linear units; dBm/dBi conversions live only at the
configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScenarioError
from .orbital import EARTH

BOLTZMANN_J_PER_K = 1.380649e-23


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class LinkBudget:
    """Linear-unit RF parameters of the satellite-station link."""

    power_w: float
    gain_sat: float
    gain_gs: float
    bandwidth_hz: float
    noise_temp_k: float
    carrier_hz: float

    def __post_init__(self):
        for name in (
            "power_w", "gain_sat", "gain_gs",
            "bandwidth_hz", "noise_temp_k", "carrier_hz",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def signal_power_w(self) -> float:
        return self.power_w * self.gain_sat * self.gain_gs

    @property
    def noise_power_w(self) -> float:
        return BOLTZMANN_J_PER_K * self.noise_temp_k * self.bandwidth_hz


def path_loss(distance_m: float, carrier_hz: float) -> float:
    """Free-space path loss as a linear factor: (4 pi f d / c)^2, inf where
    that overflows a float."""
    if distance_m <= 0:
        raise ValueError("distance must be strictly positive")
    try:
        return (4.0 * math.pi * carrier_hz * distance_m / EARTH.c) ** 2
    except OverflowError:
        return math.inf


def snr(budget: LinkBudget, distance_m: float) -> float:
    """Linear SNR of the link to a satellite in view at distance_m; an
    infinite path loss gives 0, and a noise power times path loss that
    underflows to 0 gives inf."""
    noise = budget.noise_power_w * path_loss(distance_m, budget.carrier_hz)
    return budget.signal_power_w / noise if noise else math.inf


def data_rate(budget: LinkBudget, snr_linear: float) -> float:
    """Shannon rate B*log2(1 + SNR) in bits/second."""
    if snr_linear < 0:
        raise ValueError("SNR must be non-negative")
    return budget.bandwidth_hz * math.log2(1.0 + snr_linear)


def comm_time(model_bits: float, rate_bps: float, distance_m: float) -> float:
    """Transmission plus propagation time for one model exchange."""
    return model_bits / rate_bps + distance_m / EARTH.c


def pass_comm_time(budget: LinkBudget, model_bits: float, max_distance_m: float) -> float:
    """Exchange time for one pass, using the pass's longest distance. A pass
    is priced only at a finite, positive Shannon rate; a rate of 0, inf or
    NaN raises a ScenarioError."""
    gamma = snr(budget, max_distance_m)
    rate = data_rate(budget, gamma)
    if not 0.0 < rate < math.inf:
        raise ScenarioError(
            f"link: a pass at range {max_distance_m:.6g} m has SNR {gamma:g} and "
            f"rate {rate:g} bit/s; a pass is priced only at a finite, positive rate"
        )
    return comm_time(model_bits, rate, max_distance_m)
