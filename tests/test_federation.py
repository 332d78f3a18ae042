import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satfl.federation import fedavg_sync_aggregate, fedsat_aggregate
from satfl.learning import ComputeProfile, LocalDataset, LogisticRegressionLearner, local_sgd


def upload(params, alpha, prev, new):
    return fedsat_aggregate(np.asarray(params, float), alpha,
                            np.asarray(prev, float), np.asarray(new, float))


class TestFedsatAggregate:
    def test_zero_delta_is_identity(self):
        w = upload([1.0, -2.0], 1.0, [3.0, 4.0], [3.0, 4.0])
        np.testing.assert_array_equal(w, [1.0, -2.0])

    def test_single_satellite_substitution(self):
        # hand-derived: alpha = 1 and prev = w^n gives w^{n+1} = new
        w = np.array([0.5, -1.5, 2.0])
        new = np.array([1.0, 0.0, 1.0])
        np.testing.assert_allclose(upload(w, 1.0, w, new), new, atol=1e-15)

    def test_half_weight_hand_example(self):
        # hand evaluation: w=(1,1), prev=(1,1), new=(0,0), alpha=0.5 -> (0.5,0.5)
        np.testing.assert_allclose(upload([1.0, 1.0], 0.5, [1.0, 1.0], [0.0, 0.0]),
                                   [0.5, 0.5])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            upload([1.0, 2.0], 1.0, [1.0], [2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        w_q=arrays(np.int64, 4, elements=st.integers(-(2**20), 2**20)),
        d_q=arrays(np.int64, 4, elements=st.integers(-(2**20), 2**20)),
    )
    def test_delta_then_inverse_restores_bitwise_on_dyadic_values(self, w_q, d_q):
        # dyadic rationals with alpha = 0.5 keep every operation exact, so
        # the inverse delta must restore the start bit for bit
        w = w_q.astype(np.float64) / 2**20
        delta = d_q.astype(np.float64) / 2**20
        zero = np.zeros(4)
        np.testing.assert_array_equal(upload(upload(w, 0.5, delta, zero), 0.5, zero, delta), w)

    @settings(max_examples=50, deadline=None)
    @given(
        w=arrays(np.float64, 4, elements=st.floats(-10, 10)),
        delta=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    )
    def test_delta_then_inverse_restores_within_rounding(self, w, delta):
        zero = np.zeros(4)
        np.testing.assert_allclose(upload(upload(w, 0.3, delta, zero), 0.3, zero, delta), w,
                                   rtol=0, atol=1e-14)


class TestFedavgSyncAggregate:
    def test_identical_updates(self):
        p = np.array([1.0, 2.0])
        w = fedavg_sync_aggregate(np.array([9.0, 9.0]), {0: 0.25, 1: 0.75}, {0: p, 1: p})
        np.testing.assert_allclose(w, p)

    def test_equal_weight_mean(self):
        w = fedavg_sync_aggregate(np.zeros(2), {0: 0.5, 1: 0.5},
                                  {0: np.array([0.0, 0.0]), 1: np.array([2.0, 2.0])})
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_data_proportional_weights(self):
        w = fedavg_sync_aggregate(np.zeros(1), {0: 0.2, 1: 0.8},
                                  {0: np.array([10.0]), 1: np.array([0.0])})
        np.testing.assert_allclose(w, [2.0])

    def test_missing_satellite_refused(self):
        with pytest.raises(ValueError):
            fedavg_sync_aggregate(np.zeros(1), {0: 0.5, 1: 0.5}, {0: np.array([1.0])})

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fedavg_sync_aggregate(np.zeros(2), {0: 1.0}, {0: np.zeros(3)})

    def test_sums_in_weights_order(self):
        # (1 + 1e16) - 1e16 is 0.0 in floats but 1 + (1e16 - 1e16) is 1.0: the
        # sum follows the weights mapping, not the satellite ids or the updates
        updates = {0: np.array([1e16]), 1: np.array([1.0]), 2: np.array([-1e16])}
        for order, expected in (((1, 0, 2), 0.0), ((0, 2, 1), 1.0)):
            weights = {k: 1.0 for k in order}
            assert fedavg_sync_aggregate(np.zeros(1), weights, updates)[0] == expected


def test_rules_do_not_mutate_their_arguments():
    w, prev, new = np.array([1.0, 2.0]), np.array([3.0, 5.0]), np.array([0.5, 0.25])
    weights, updates = {1: 0.75, 0: 0.25}, {0: prev, 1: new}
    copies = [a.copy() for a in (w, prev, new)]
    out = [fedsat_aggregate(w, 0.5, prev, new), fedavg_sync_aggregate(w, weights, updates)]
    assert all(o is not w for o in out)
    for a, b in zip((w, prev, new), copies):
        np.testing.assert_array_equal(a, b)
    assert list(weights.items()) == [(1, 0.75), (0, 0.25)]
    assert list(updates.items()) == [(0, prev), (1, new)]


class TestSequentialSgdEquivalence:
    def test_single_satellite_chain(self):
        # m aggregated uploads == m chained local trainings
        learner = LogisticRegressionLearner(3, 2)
        rng = np.random.default_rng(0)
        data = LocalDataset(rng.standard_normal((30, 2)), rng.integers(0, 3, 30))
        rows = [np.arange(30)]
        profile = ComputeProfile(eta=0.1, batch_size=10, local_iters=1)
        w0 = learner.init_params()

        global_w = w0
        prev_upload = None
        for m in range(5):
            trained = local_sgd(learner, [global_w], data, rows, profile, [m])[0]
            prev = prev_upload if prev_upload is not None else global_w
            global_w = fedsat_aggregate(global_w, 1.0, prev, trained)
            prev_upload = trained

        w = w0.copy()
        for m in range(5):
            w = local_sgd(learner, [w], data, rows, profile, [m])[0]

        assert np.max(np.abs(global_w - w)) <= 1e-12

