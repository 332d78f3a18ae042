import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satfl.learning import (
    ComputeProfile,
    LocalDataset,
    LogisticRegressionLearner,
    MLPLearner,
    evaluate_accuracy,
    generate_synthetic_task,
    local_sgd,
    make_learner,
    partition_non_iid,
)

from conftest import reference_softmax, softmax_loss


def small_instance(seed, classes=4, dim=3, n=12):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, n)
    return X, y


class TestLosses:
    def test_uniform_predictor_cross_entropy(self):
        learner = LogisticRegressionLearner(10, 5)
        params = learner.init_params()  # zeros -> uniform softmax
        X, y = small_instance(0, classes=10, dim=5)
        assert softmax_loss(learner, params, X, y) == pytest.approx(math.log(10))

    def test_loss_nonnegative_and_matches_per_sample_mean(self):
        learner = LogisticRegressionLearner(4, 3)
        rng = np.random.default_rng(1)
        params = rng.standard_normal(learner.param_dim)
        X, y = small_instance(1)
        total = softmax_loss(learner, params, X, y)
        assert total >= 0.0
        singles = [softmax_loss(learner, params, X[i:i + 1], y[i:i + 1])
                   for i in range(len(y))]
        assert total == pytest.approx(np.mean(singles))


class _Quadratic:
    """Scalar test learner with loss (w - a)^2, independent of the data."""

    classes = 1
    bias_column = False

    def __init__(self, a):
        self.a = a
        self._workspaces = {}

    def _gradient_fn(self, w, g, rows):
        def gradient(X, Y):
            g[...] = 2.0 * (w - self.a)
        return gradient


class TestLocalSgd:
    def test_single_full_batch_step_closed_form(self):
        # hand-derived: w' = w - 2*eta*(w - a) for one full-batch step
        a, w0, eta = 3.0, 1.0, 0.05
        data = LocalDataset(np.zeros((1, 1)), np.zeros(1, dtype=int))
        profile = ComputeProfile(eta=eta, batch_size=1, local_iters=1)
        w1 = local_sgd(_Quadratic(a), [np.array([w0])], data, [np.arange(1)], profile,
                       [0])[0]
        assert w1[0] == pytest.approx(w0 - 2 * eta * (w0 - a))

    def test_zero_gradient_fixed_point(self):
        data = LocalDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        profile = ComputeProfile(eta=0.1, batch_size=3, local_iters=5)
        w = local_sgd(_Quadratic(2.0), [np.array([2.0])], data, [np.arange(3)], profile,
                      [0])[0]
        assert w[0] == pytest.approx(2.0)

    def test_deterministic_under_seed(self):
        learner = LogisticRegressionLearner(4, 3)
        X, y = small_instance(7, n=30)
        data, rows = LocalDataset(X, y), [np.arange(30)]
        profile = ComputeProfile(eta=0.1, batch_size=5, local_iters=2)
        w0 = learner.init_params()
        a = local_sgd(learner, [w0], data, rows, profile, [42])[0]
        b = local_sgd(learner, [w0], data, rows, profile, [42])[0]
        np.testing.assert_array_equal(a, b)
        c = local_sgd(learner, [w0], data, rows, profile, [43])[0]
        assert not np.array_equal(a, c)

    def test_stack_of_unequal_lengths_rejected(self):
        learner = LogisticRegressionLearner(4, 3)
        data = LocalDataset(*small_instance(0, n=24))
        profile = ComputeProfile(eta=0.1, batch_size=4)
        with pytest.raises(ValueError, match="share one length"):
            local_sgd(learner, [learner.init_params()] * 2, data,
                      [np.arange(12), np.arange(12, 23)], profile, [0, 1])

    def test_full_batch_descent_is_monotone(self):
        learner = LogisticRegressionLearner(4, 3)
        X, y = small_instance(8, n=40)
        data = LocalDataset(X, y)
        profile = ComputeProfile(eta=1e-3, batch_size=40, local_iters=1)
        w = learner.init_params()
        losses = [softmax_loss(learner, w, X, y)]
        for i in range(10):
            w = local_sgd(learner, [w], data, [np.arange(40)], profile, [i])[0]
            losses.append(softmax_loss(learner, w, X, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _reference_logits(learner, params, X):
    """Logits as the learners computed them, adding the bias to a copy."""
    if isinstance(learner, LogisticRegressionLearner):
        W, b = learner._unpack(params)
        return X @ W.T + b
    W1, b1, W2, b2 = learner._unpack(params)
    return np.tanh(X @ W1.T + b1) @ W2.T + b2


def _reference_gradient(learner, params, X, y):
    """Flat gradient as the learners computed it with per-sample label
    indexing, before the per-block kernels; logistic regression's from
    rows that end in a 1, with the bias as the last column of (W, b)."""
    n = len(y)
    if isinstance(learner, LogisticRegressionLearner):
        wb = params.reshape(learner.classes, learner.feature_dim + 1)
        Xa = np.concatenate([X, np.ones((n, 1))], axis=1)
        p = reference_softmax(Xa @ wb.T)
        p[np.arange(n), y] -= 1.0
        p /= n
        return (p.T @ Xa).ravel()
    W1, b1, W2, b2 = learner._unpack(params)
    a = np.tanh(X @ W1.T + b1)
    p = reference_softmax(a @ W2.T + b2)
    p[np.arange(n), y] -= 1.0
    p /= n
    da = (p @ W2) * (1.0 - a * a)
    return np.concatenate([(da.T @ X).ravel(), da.sum(axis=0), (p.T @ a).ravel(),
                           p.sum(axis=0)])


def _reference_sgd(learner, start, data, rows, profile, seed):
    """local_sgd of one update on the rows of data, as a loop that
    fancy-indexes every batch."""
    rng = np.random.default_rng(seed)
    w = np.array(start, dtype=float, copy=True)
    n = len(rows)
    for _ in range(profile.local_iters):
        order = rng.permutation(n)
        for lo in range(0, n, profile.batch_size):
            idx = rows[order[lo:lo + profile.batch_size]]
            g = _reference_gradient(learner, w, data.features[idx], data.labels[idx])
            w -= profile.eta * g
    return w


class TestLocalSgdMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["logreg", "mlp"]),
        classes=st.integers(2, 5),
        dim=st.integers(1, 6),
        hidden=st.integers(1, 8),
        k=st.integers(1, 4),
        n=st.integers(1, 40),
        extra=st.integers(0, 39),
        batch_size=st.integers(1, 50),
        local_iters=st.integers(1, 3),
        eta=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # stacks whose chunks of n // k rows batch_size does not divide, so a
    # chunk span that is not a multiple of batch_size moves batch boundaries
    @example(kind="logreg", classes=3, dim=2, hidden=1, k=2, n=21, extra=5, batch_size=4,
             local_iters=2, eta=0.5, seed=0)
    @example(kind="mlp", classes=3, dim=2, hidden=3, k=3, n=31, extra=5, batch_size=3,
             local_iters=1, eta=0.5, seed=1)
    # one-row batches, and a batch larger than the dataset
    @example(kind="mlp", classes=4, dim=3, hidden=2, k=4, n=9, extra=5, batch_size=1,
             local_iters=3, eta=0.2, seed=2)
    @example(kind="logreg", classes=4, dim=3, hidden=1, k=3, n=10, extra=5, batch_size=11,
             local_iters=2, eta=0.2, seed=3)
    # a lone update, which trains without the stack axis, with a ragged
    # last batch; and with one 1-row batch, where np.dot in place of
    # np.matmul moves the bits
    @example(kind="logreg", classes=4, dim=3, hidden=1, k=1, n=23, extra=5, batch_size=10,
             local_iters=2, eta=0.3, seed=4)
    @example(kind="mlp", classes=4, dim=3, hidden=5, k=1, n=23, extra=5, batch_size=10,
             local_iters=2, eta=0.3, seed=5)
    @example(kind="logreg", classes=2, dim=2, hidden=1, k=1, n=1, extra=0, batch_size=1,
             local_iters=1, eta=1.0, seed=0)
    # 1-row batches, which BLAS computes as matrix-vector products: a lone
    # update on one feature, and a stack whose last chunk is one row
    @example(kind="logreg", classes=3, dim=1, hidden=1, k=1, n=7, extra=3, batch_size=1,
             local_iters=2, eta=0.4, seed=6)
    @example(kind="logreg", classes=3, dim=3, hidden=1, k=2, n=21, extra=5, batch_size=10,
             local_iters=2, eta=0.4, seed=7)
    def test_bitwise_equal(self, kind, classes, dim, hidden, k, n, extra, batch_size,
                           local_iters, eta, seed):
        # every row of a stack of k updates equals that update trained alone
        # by the per-batch reference loop; the k shards of n rows are drawn
        # from one dataset of fewer than 2n rows, so any two of them overlap
        rng = np.random.default_rng(seed)
        learner = make_learner(kind, classes, dim, hidden)
        size = n + extra % n
        data = LocalDataset(rng.standard_normal((size, dim)),
                            rng.integers(0, classes, size))
        shards = [np.sort(rng.choice(size, n, replace=False)) for _ in range(k)]
        starts = rng.standard_normal((k, learner.param_dim))
        profile = ComputeProfile(eta=eta, batch_size=batch_size, local_iters=local_iters)
        w0 = starts[0]
        assert np.array_equal(
            learner.gradient(w0, data.features, data.labels),
            _reference_gradient(learner, w0, data.features, data.labels),
        )
        stacked = local_sgd(learner, list(starts), data, shards, profile,
                            [np.random.SeedSequence([seed, i]) for i in range(k)])
        assert stacked.shape == (k, learner.param_dim)
        for i in range(k):
            alone = _reference_sgd(learner, starts[i], data, shards[i], profile,
                                   np.random.SeedSequence([seed, i]))
            assert np.array_equal(stacked[i], alone), i


class TestLocalSgdWorkspaceReuse:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["logreg", "mlp"]),
        batch_size=st.integers(2, 8),
        batches=st.integers(0, 4),
        ragged=st.integers(0, 6),
        calls=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2,
                       max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="logreg", batch_size=4, batches=2, ragged=2,
             calls=[(1, 2), (3, 1), (1, 1), (2, 2), (1, 3)], seed=0)
    @example(kind="mlp", batch_size=3, batches=1, ragged=0,
             calls=[(1, 1), (1, 3), (2, 1), (1, 2)], seed=1)
    def test_interleaved_calls_equal_the_reference(self, kind, batch_size, batches, ragged,
                                                   calls, seed):
        # one learner takes lone calls, which reuse its workspace, and
        # stacked calls (k, local_iters) in turn, from new starts, seeds and
        # shards of one length with a ragged last batch; every result equals
        # the per-batch reference, and still does after every later call
        rng = np.random.default_rng(seed)
        learner = make_learner(kind, 3, 2, 4)
        n = batches * batch_size + 1 + ragged % (batch_size - 1)
        size = 2 * n
        data = LocalDataset(rng.standard_normal((size, 2)), rng.integers(0, 3, size))
        results = []
        for c, (k, local_iters) in enumerate(calls):
            profile = ComputeProfile(eta=0.3, batch_size=batch_size, local_iters=local_iters)
            shards = [np.sort(rng.choice(size, n, replace=False)) for _ in range(k)]
            starts = rng.standard_normal((k, learner.param_dim))
            out = local_sgd(learner, list(starts), data, shards, profile,
                            [np.random.SeedSequence([seed, c, i]) for i in range(k)])
            results += [(out[i], _reference_sgd(learner, starts[i], data, shards[i], profile,
                                                np.random.SeedSequence([seed, c, i])))
                        for i in range(k)]
            for got, expected in results:
                assert np.array_equal(got, expected)
        assert n % batch_size
        assert len(learner._workspaces) == any(k == 1 for k, _ in calls)


class TestGradients:
    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_matches_central_finite_differences(self, kind):
        step = 1e-4
        for trial in range(20):
            rng = np.random.default_rng(trial)
            learner = make_learner(kind, classes=3, feature_dim=4, hidden=5)
            params = rng.standard_normal(learner.param_dim)
            X = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, 8)
            analytic = learner.gradient(params, X, y)
            fd = np.empty_like(analytic)
            for i in range(len(params)):
                up, dn = params.copy(), params.copy()
                up[i] += step
                dn[i] -= step
                fd[i] = (softmax_loss(learner, up, X, y)
                         - softmax_loss(learner, dn, X, y)) / (2 * step)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic - fd)) / scale <= 1e-5

    @pytest.mark.parametrize("stack", [(), (3,)])
    def test_logreg_is_close_to_the_bias_sum(self, stack):
        # the gradient from rows that end in a 1 agrees, to rounding, with
        # the formula that adds the bias to X @ W.T and sums p for its
        # gradient, for lone parameters (P,) and stacked ones (3, P)
        learner = LogisticRegressionLearner(4, 3)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n = 1 + trial % 12
            params = rng.standard_normal(stack + (learner.param_dim,))
            X = rng.standard_normal(stack + (n, 3))
            y = rng.integers(0, 4, stack + (n,))
            got = learner.gradient(params, X, y)
            for i in np.ndindex(stack):
                W, b = learner._unpack(params[i])
                p = reference_softmax(X[i] @ W.T + b)
                p[np.arange(n), y[i]] -= 1.0
                p /= n
                expected = np.concatenate([p.T @ X[i], p.sum(0)[:, None]], 1).ravel()
                np.testing.assert_allclose(got[i], expected, rtol=1e-13)


class TestPartition:
    def make(self, classes=10, per_class=20):
        X = np.arange(classes * per_class * 2, dtype=float).reshape(-1, 2)
        y = np.repeat(np.arange(classes), per_class)
        return LocalDataset(X, y)

    def test_two_altitude_groups_get_disjoint_label_halves(self):
        data = self.make()
        groups = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        shards = partition_non_iid(data, groups, labels_per_group=5, seed=0)
        for k in groups[0]:
            assert set(data.labels[shards[k]]) <= {0, 1, 2, 3, 4}
        for k in groups[1]:
            assert set(data.labels[shards[k]]) <= {5, 6, 7, 8, 9}

    def test_shards_are_sorted_disjoint_and_cover_the_rows(self):
        data = self.make()
        groups = [[0, 1, 2], [3, 4, 5]]
        shards = partition_non_iid(data, groups, labels_per_group=5, seed=1)
        assert list(shards) == [0, 1, 2, 3, 4, 5]
        for rows in shards.values():
            assert rows.dtype == np.intp
            assert np.all(np.diff(rows) > 0)
        for i, a in shards.items():
            for j, b in shards.items():
                assert i == j or np.intersect1d(a, b).size == 0
        np.testing.assert_array_equal(np.sort(np.concatenate(list(shards.values()))),
                                      np.arange(data.size))

    def test_single_satellite_gets_everything(self):
        data = self.make(classes=4)
        shards = partition_non_iid(data, [[0]], labels_per_group=4, seed=0)
        np.testing.assert_array_equal(shards[0], np.arange(data.size))

    def test_insufficient_samples_rejected(self):
        data = self.make(classes=2, per_class=1)
        with pytest.raises(ValueError):
            partition_non_iid(data, [[0, 1, 2]], labels_per_group=2, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        labels_per_group=st.integers(1, 3),
        extra=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_round_robin_reference(self, sizes, labels_per_group, extra, seed):
        groups, k = [], 0
        for size in sizes:
            groups.append(list(range(k, k + size)))
            k += size
        data = self.make(classes=labels_per_group * len(groups),
                         per_class=max(sizes) + extra)
        # reference: deal each label's shuffled samples one at a time
        rng = np.random.default_rng(seed)
        expected = {k: [] for g in groups for k in g}
        for g_idx, members in enumerate(groups):
            for label in range(g_idx * labels_per_group, (g_idx + 1) * labels_per_group):
                idx = rng.permutation(np.flatnonzero(data.labels == label))
                for i, sample in enumerate(idx):
                    expected[members[i % len(members)]].append(int(sample))
        shards = partition_non_iid(data, groups, labels_per_group, seed)
        assert shards.keys() == expected.keys()
        for k, rows in expected.items():
            np.testing.assert_array_equal(shards[k], sorted(rows))
        # the shards partition the rows, each within its group's labels
        np.testing.assert_array_equal(np.sort(np.concatenate(list(shards.values()))),
                                      np.arange(data.size))
        for g_idx, members in enumerate(groups):
            for k in members:
                assert np.all(data.labels[shards[k]] // labels_per_group == g_idx)

    def test_deterministic_under_seed(self):
        data = self.make()
        groups = [[0, 1], [2, 3]]
        a = partition_non_iid(data, groups, 5, seed=9)
        b = partition_non_iid(data, groups, 5, seed=9)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


class TestEvaluationAndTask:
    def test_zero_params_near_chance(self):
        learner = LogisticRegressionLearner(10, 6)
        _, test = generate_synthetic_task(10, 6, 50, seed=3)
        acc = evaluate_accuracy(learner, learner.init_params(), test)
        assert abs(acc - 0.1) <= 0.05

    def test_memorized_train_as_test(self):
        learner = LogisticRegressionLearner(3, 2)
        train, _ = generate_synthetic_task(3, 2, 40, seed=5, spread=0.05)
        profile = ComputeProfile(eta=0.5, batch_size=120, local_iters=300)
        w = local_sgd(learner, [learner.init_params()], train, [np.arange(train.size)],
                      profile, [0])[0]
        assert evaluate_accuracy(learner, w, train) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["logreg", "mlp"]), size=st.integers(1, 3000),
           seed=st.integers(0, 2**32 - 1))
    def test_accuracy_is_the_mean_of_hits(self, kind, size, seed):
        # the predictions are the argmax of the reference logits, and the
        # count of hits over the size is their mean to the bit
        rng = np.random.default_rng(seed)
        learner = make_learner(kind, 3, 2, 4)
        params = rng.standard_normal(learner.param_dim)
        test = LocalDataset(rng.standard_normal((size, 2)), rng.integers(0, 3, size))
        pred = np.argmax(_reference_logits(learner, params, test.features), axis=1)
        accuracy = evaluate_accuracy(learner, params, test)
        assert type(accuracy) is float
        assert accuracy.hex() == float(np.mean(pred == test.labels)).hex()

    def test_accuracy_in_unit_interval(self):
        learner = LogisticRegressionLearner(4, 3)
        _, test = generate_synthetic_task(4, 3, 20, seed=6)
        w = np.random.default_rng(0).standard_normal(learner.param_dim)
        assert 0.0 <= evaluate_accuracy(learner, w, test) <= 1.0

    def test_empty_test_set_rejected(self):
        learner = LogisticRegressionLearner(4, 3)
        with pytest.raises(ValueError):
            evaluate_accuracy(learner, learner.init_params(),
                              LocalDataset(np.empty((0, 3)), np.empty(0, dtype=int)))

    def test_task_deterministic_and_sized(self):
        a_train, a_test = generate_synthetic_task(5, 4, 30, seed=11)
        b_train, b_test = generate_synthetic_task(5, 4, 30, seed=11)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)
        assert a_train.size == 150
        for c in range(5):
            assert np.sum(a_train.labels == c) == 30

    def test_tiny_spread_reaches_high_accuracy(self):
        # centralized SGD oracle: near-separable blobs are learnable
        learner = LogisticRegressionLearner(10, 8)
        train, test = generate_synthetic_task(10, 8, 100, seed=1, spread=0.02)
        profile = ComputeProfile(eta=0.3, batch_size=50, local_iters=120)
        w = local_sgd(learner, [learner.init_params()], train, [np.arange(train.size)],
                      profile, [0])[0]
        assert evaluate_accuracy(learner, w, test) >= 0.99

    def test_mlp_param_dim(self):
        m = MLPLearner(3, 4, hidden=5)
        assert m.init_params().size == m.param_dim
