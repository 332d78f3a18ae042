import math
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from satfl.errors import ScenarioError
from satfl.link import (
    LinkBudget,
    comm_time,
    data_rate,
    db_to_linear,
    dbm_to_watts,
    pass_comm_time,
    path_loss,
    snr,
)
from satfl.orbital import EARTH

# frozen oracle: independent evaluation of the SNR chain for the reference
# parameters (40 dBm, 6.98 dBi gains, 20 MHz, 290 K, 2.4 GHz) at 1.69e6 m
GOLDEN_SNR_1690KM = 0.10752625221874915


@pytest.fixture
def reference_budget():
    return LinkBudget(dbm_to_watts(40.0), db_to_linear(6.98), db_to_linear(6.98),
                      20e6, 290.0, 2.4e9)


class TestPathLoss:
    def test_unit_point(self):
        f = 2.4e9
        d = EARTH.c / (4 * math.pi * f)
        assert path_loss(d, f) == pytest.approx(1.0)

    def test_golden_value_against_db_formula(self):
        # FSPL(dB) = 20log10(d_km) + 20log10(f_MHz) + 32.44
        loss = path_loss(1.0e6, 2.4e9)
        assert loss == pytest.approx(1.0120472884315342e16)
        db = 10 * math.log10(loss)
        approx_db = 20 * math.log10(1000) + 20 * math.log10(2400) + 32.44
        assert db == pytest.approx(approx_db, abs=0.05)

    def test_square_law(self):
        assert path_loss(2e6, 2.4e9) == pytest.approx(4 * path_loss(1e6, 2.4e9))

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 2.4e9)

    def test_overflow_is_infinite(self):
        assert path_loss(1.69e6, 1e300) == math.inf


class TestSnr:
    def test_golden_chain(self, reference_budget):
        assert snr(reference_budget, 1.69e6) == pytest.approx(
            GOLDEN_SNR_1690KM, rel=1e-12
        )

    def test_linear_in_power(self, reference_budget):
        double = LinkBudget(
            power_w=2 * reference_budget.power_w,
            gain_sat=reference_budget.gain_sat,
            gain_gs=reference_budget.gain_gs,
            bandwidth_hz=reference_budget.bandwidth_hz,
            noise_temp_k=reference_budget.noise_temp_k,
            carrier_hz=reference_budget.carrier_hz,
        )
        assert snr(double, 1.69e6) == pytest.approx(2 * snr(reference_budget, 1.69e6))

    def test_infinite_path_loss_is_zero_snr(self):
        assert snr(LinkBudget(10.0, 5.0, 5.0, 20e6, 290.0, 1e300), 1.69e6) == 0.0

    def test_underflowing_noise_times_loss_is_infinite_snr(self):
        assert snr(LinkBudget(10.0, 5.0, 5.0, 20e6, 290.0, 1e-300), 1.69e6) == math.inf

    def test_underflowing_noise_power_is_infinite_snr(self):
        budget = LinkBudget(10.0, 5.0, 5.0, 20e6, 1e-320, 2.4e9)
        assert budget.noise_power_w == 0.0
        assert snr(budget, 1.69e6) == math.inf

    def test_overflowing_signal_power_is_infinite_snr(self):
        # each factor is finite; their product is not
        assert LinkBudget(10.0, 1e300, 1e7, 20e6, 290.0, 2.4e9).signal_power_w == 1e308
        budget = LinkBudget(10.0, 1e300, 1e8, 20e6, 290.0, 2.4e9)
        assert budget.signal_power_w == math.inf
        assert snr(budget, 1.69e6) == math.inf
        # with an infinite path loss too, inf / inf
        assert math.isnan(snr(LinkBudget(10.0, 1e300, 1e8, 20e6, 290.0, 1e300), 1.69e6))


class TestDataRate:
    def test_zero_snr(self, reference_budget):
        assert data_rate(reference_budget, 0.0) == 0.0

    def test_snr_one(self, reference_budget):
        assert data_rate(reference_budget, 1.0) == pytest.approx(2.0e7)

    def test_snr_three_unit_bandwidth(self):
        b = LinkBudget(1.0, 1.0, 1.0, 1.0, 290.0, 2.4e9)
        assert data_rate(b, 3.0) == pytest.approx(2.0)

    def test_negative_snr_rejected(self, reference_budget):
        with pytest.raises(ValueError):
            data_rate(reference_budget, -0.1)

    def test_monotone_in_distance(self, reference_budget):
        rates = [
            data_rate(reference_budget, snr(reference_budget, d))
            for d in (0.5e6, 1.0e6, 1.69e6, 3.0e6)
        ]
        assert rates == sorted(rates, reverse=True)


class TestCommTime:
    def test_pure_propagation(self):
        assert comm_time(0.0, 1e6, 3e6) == pytest.approx(3e6 / EARTH.c)

    def test_pure_transmission(self):
        assert comm_time(2e7, 2e7, 0.0) == pytest.approx(1.0)

    def test_additivity(self):
        assert comm_time(2e7, 2e7, EARTH.c) == pytest.approx(2.0)


def log_uniform(lo, hi):
    """Floats from lo up to hi, log-uniformly: 2**e for a uniform e."""
    return st.floats(math.log2(lo), math.log2(hi), exclude_max=True).map(lambda e: 2.0 ** e)


# every positive float, subnormals included
positive_floats = log_uniform(5e-324, sys.float_info.max)


class TestPassCommTime:
    """A pass is priced only at a finite, positive Shannon rate."""

    @settings(max_examples=500, deadline=None)
    @given(fields=st.tuples(*[positive_floats] * 6),
           distance_m=log_uniform(1.0, 1e9), model_bits=log_uniform(1.0, 1e12))
    def test_priced_exactly_or_refused(self, fields, distance_m, model_bits):
        # every positive budget builds, and every step of its pricing is a
        # float result; only pass_comm_time refuses
        budget = LinkBudget(*fields)
        rate = data_rate(budget, snr(budget, distance_m))
        if 0.0 < rate < math.inf:
            event("priced")
            assert (pass_comm_time(budget, model_bits, distance_m)
                    == model_bits / rate + distance_m / EARTH.c)
        else:
            event(f"refused, rate {rate}")
            with pytest.raises(ScenarioError):
                pass_comm_time(budget, model_bits, distance_m)


class TestDbConversions:
    def test_reference_values(self):
        assert dbm_to_watts(40.0) == pytest.approx(10.0)
        assert db_to_linear(6.98) == pytest.approx(4.988844874600123)
