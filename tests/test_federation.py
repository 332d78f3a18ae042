import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from satfl.federation import ServerState, fedavg_sync_aggregate, fedsat_aggregate
from satfl.learning import ComputeProfile, LocalDataset, LogisticRegressionLearner, local_sgd


def make_server(params, weights):
    return ServerState(params=np.asarray(params, dtype=float), weights=weights)


def upload(server, k, prev, new):
    return fedsat_aggregate(server, k, np.asarray(prev, float), np.asarray(new, float))


class TestFedsatAggregate:
    def test_zero_delta_is_identity(self):
        server = make_server([1.0, -2.0], {0: 1.0})
        before = server.params.copy()
        upload(server, 0, [3.0, 4.0], [3.0, 4.0])
        np.testing.assert_array_equal(server.params, before)
        assert server.epoch == 1

    def test_single_satellite_substitution(self):
        # hand-derived: alpha = 1 and prev = w^n gives w^{n+1} = new
        w = np.array([0.5, -1.5, 2.0])
        new = np.array([1.0, 0.0, 1.0])
        server = make_server(w.copy(), {0: 1.0})
        upload(server, 0, w.copy(), new)
        np.testing.assert_allclose(server.params, new, atol=1e-15)

    def test_half_weight_hand_example(self):
        # hand evaluation: w=(1,1), prev=(1,1), new=(0,0), alpha=0.5 -> (0.5,0.5)
        server = make_server([1.0, 1.0], {0: 0.5, 1: 0.5})
        upload(server, 0, [1.0, 1.0], [0.0, 0.0])
        np.testing.assert_allclose(server.params, [0.5, 0.5])

    def test_unregistered_satellite_rejected(self):
        server = make_server([1.0], {0: 1.0})
        with pytest.raises(ValueError):
            upload(server, 7, [1.0], [2.0])

    def test_dimension_mismatch_rejected(self):
        server = make_server([1.0, 2.0], {0: 1.0})
        with pytest.raises(ValueError):
            upload(server, 0, [1.0], [2.0])

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
        server = make_server(w.copy(), {0: 0.5, 1: 0.5})
        zero = np.zeros(4)
        upload(server, 0, delta.copy(), zero)
        upload(server, 0, zero, delta.copy())
        np.testing.assert_array_equal(server.params, w)

    @settings(max_examples=50, deadline=None)
    @given(
        w=arrays(np.float64, 4, elements=st.floats(-10, 10)),
        delta=arrays(np.float64, 4, elements=st.floats(-10, 10)),
    )
    def test_delta_then_inverse_restores_within_rounding(self, w, delta):
        server = make_server(w.copy(), {0: 0.3, 1: 0.7})
        zero = np.zeros(4)
        upload(server, 0, delta.copy(), zero)
        upload(server, 0, zero, delta.copy())
        np.testing.assert_allclose(server.params, w, rtol=0, atol=1e-14)

    def test_counter_discipline(self):
        server = make_server([0.0], {0: 0.5, 1: 0.5})
        uploads = 0
        for k in (0, 1, 0, 1, 1):
            upload(server, k, [1.0], [0.5])
            uploads += 1
        assert server.epoch == uploads


class TestFedavgSyncAggregate:
    def test_identical_updates(self):
        server = make_server([9.0, 9.0], {0: 0.25, 1: 0.75})
        p = np.array([1.0, 2.0])
        fedavg_sync_aggregate(server, {0: p.copy(), 1: p.copy()})
        np.testing.assert_allclose(server.params, p)
        assert server.epoch == 1

    def test_equal_weight_mean(self):
        server = make_server([0.0, 0.0], {0: 0.5, 1: 0.5})
        fedavg_sync_aggregate(
            server, {0: np.array([0.0, 0.0]), 1: np.array([2.0, 2.0])}
        )
        np.testing.assert_allclose(server.params, [1.0, 1.0])

    def test_data_proportional_weights(self):
        server = make_server([0.0], {0: 0.2, 1: 0.8})
        fedavg_sync_aggregate(server, {0: np.array([10.0]), 1: np.array([0.0])})
        np.testing.assert_allclose(server.params, [2.0])

    def test_missing_satellite_refused(self):
        server = make_server([0.0], {0: 0.5, 1: 0.5})
        with pytest.raises(ValueError):
            fedavg_sync_aggregate(server, {0: np.array([1.0])})


class TestSequentialSgdEquivalence:
    def test_single_satellite_chain(self):
        # m aggregated uploads == m chained local trainings
        learner = LogisticRegressionLearner(3, 2)
        rng = np.random.default_rng(0)
        data = LocalDataset(rng.standard_normal((30, 2)), rng.integers(0, 3, 30))
        profile = ComputeProfile(eta=0.1, batch_size=10, local_iters=1)
        w0 = learner.init_params()

        server = make_server(w0.copy(), {0: 1.0})
        prev_upload = None
        for m in range(5):
            start = server.params.copy()
            trained = local_sgd(learner, [start], [data], profile, [m])[0]
            prev = prev_upload if prev_upload is not None else start
            upload(server, 0, prev, trained)
            prev_upload = trained

        w = w0.copy()
        for m in range(5):
            w = local_sgd(learner, [w], [data], profile, [m])[0]

        assert np.max(np.abs(server.params - w)) <= 1e-12


class TestServerState:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_server([0.0], {0: 0.4, 1: 0.4})
