"""Desk-scale learners: losses, local SGD, data partitioning, evaluation.

The default learner is multinomial logistic regression on synthetic
Gaussian-blob data; a one-hidden-layer MLP is available to stress
non-convexity. Model parameters are flat float64 vectors throughout, with
a wire size of 32 bits per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIRE_BITS_PER_PARAM = 32


@dataclass
class LocalDataset:
    """Feature matrix and integer class labels: the training set, which
    each satellite reads through its shard of row indices, or a test set."""

    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (n, d) with matching labels")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ComputeProfile:
    """The local SGD settings every satellite trains with."""

    eta: float
    batch_size: int
    local_iters: int = 1

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.batch_size < 1 or self.local_iters < 1:
            raise ValueError("batch_size and local_iters must be >= 1")


def _scratch(w: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A (..., rows, cols) buffer with the stack axes of parameters w."""
    return np.empty(w.shape[:-1] + (rows, cols))


def _softmax_fn(z: np.ndarray, s: np.ndarray):
    """A function of no arguments that takes the softmax over the last axis
    of z in place; s is scratch shaped like z with a last axis of 1."""
    s0 = s[..., 0]
    maximum, add, subtract, exp, divide = (
        np.maximum.reduce, np.add.reduce, np.subtract, np.exp, np.divide)

    def softmax():
        maximum(z, -1, None, s0)
        subtract(z, s, z)
        exp(z, z)
        add(z, -1, None, s0)
        divide(z, s, z)
    return softmax


class _SoftmaxLearner:
    """Flat gradient and prediction of a softmax learner whose
    `_unpack(params)` gives views of the parameter blocks and whose
    `_gradient_fn(w, g, rows)` returns a function of a batch (X, Y) of
    `rows` rows with one-hot labels Y that writes into g, laid out like w,
    the mean cross-entropy gradient at w over the batch. The function
    closes over its scratch buffers and over the views of w and g, so it
    sees every in-place update of w.

    These calls are the whole per-batch cost of local SGD, so each is made
    at numpy's per-call floor: ufuncs are bound as closure locals, every
    output is passed positionally (numpy parses a keyword `out` more
    slowly), a reduction writes into a flat view of its output rather than
    taking keepdims, and every scalar operand is a 0-d float64 array made
    once, which numpy takes faster than a Python number and with the same
    bits.

    Both work on a leading stack axis or none: parameters (..., P) unpack
    to blocks (..., rows, cols), and X (..., n, d) and Y (..., n, c) hold
    one batch per stacked model. A learner whose `bias_column` is set
    trains on rows that end in a constant 1, X (..., n, d + 1), so that
    its bias rides in the matmuls; `gradient` appends that column, and
    local_sgd keeps it in its buffers.

    A learner keeps the workspaces of its lone local_sgd updates in
    `_workspaces` (see local_sgd), so it is not to be shared between
    threads that train at once."""

    bias_column = False

    def __init__(self, classes: int, feature_dim: int):
        self.classes = classes
        self.feature_dim = feature_dim
        self._workspaces = {}

    def gradient(self, params: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.bias_column:
            X = np.concatenate([X, np.ones(X.shape[:-1] + (1,))], -1)
        g = np.empty(np.shape(params))
        self._gradient_fn(params, g, X.shape[-2])(X, np.eye(self.classes)[y])
        return g

    def predict(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(params, X), axis=-1)


class LogisticRegressionLearner(_SoftmaxLearner):
    """Multinomial logistic regression with bias, cross-entropy loss.

    The parameters are the rows (w_c, b_c) of a (c, d + 1) matrix, so on
    rows (x, 1) one matmul gives the logits and one the whole gradient."""

    bias_column = True

    @property
    def param_dim(self) -> int:
        return self.classes * (self.feature_dim + 1)

    def init_params(self, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.zeros(self.param_dim)

    def _unpack(self, params):
        wb = params.reshape(params.shape[:-1] + (self.classes, self.feature_dim + 1))
        return wb[..., :-1], wb[..., None, :, -1]

    def logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        W, b = self._unpack(params)
        z = X @ W.mT
        z += b
        return z

    def _gradient_fn(self, w, g, rows):
        shape = w.shape[:-1] + (self.classes, self.feature_dim + 1)
        wbT, gwb = w.reshape(shape).mT, g.reshape(shape)
        p, s = _scratch(w, rows, self.classes), _scratch(w, rows, 1)
        pT, n = p.mT, np.array(rows, dtype=float)
        softmax = _softmax_fn(p, s)
        matmul, subtract, divide = np.matmul, np.subtract, np.divide

        def gradient(X, Y):
            matmul(X, wbT, p)
            softmax()
            subtract(p, Y, p)
            divide(p, n, p)
            matmul(pT, X, gwb)
        return gradient


class MLPLearner(_SoftmaxLearner):
    """One-hidden-layer tanh network with softmax output."""

    def __init__(self, classes: int, feature_dim: int, hidden: int = 16):
        super().__init__(classes, feature_dim)
        self.hidden = hidden

    @property
    def param_dim(self) -> int:
        return self.hidden * (self.feature_dim + 1) + self.classes * (self.hidden + 1)

    def init_params(self, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = rng or np.random.default_rng(0)
        return 0.1 * rng.standard_normal(self.param_dim)

    def _unpack(self, params):
        h, d, c = self.hidden, self.feature_dim, self.classes
        lead = params.shape[:-1]
        i = h * d
        W1 = params[..., :i].reshape(lead + (h, d))
        b1 = params[..., None, i:i + h]
        j = i + h
        W2 = params[..., j:j + c * h].reshape(lead + (c, h))
        b2 = params[..., None, j + c * h:]
        return W1, b1, W2, b2

    def logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        W1, b1, W2, b2 = self._unpack(params)
        a = X @ W1.mT
        a += b1
        np.tanh(a, a)
        z = a @ W2.mT
        z += b2
        return z

    def _gradient_fn(self, w, g, rows):
        (W1, b1, W2, b2), (gW1, gb1, gW2, gb2) = self._unpack(w), self._unpack(g)
        W1T, W2T, gb1_0, gb2_0 = W1.mT, W2.mT, gb1[..., 0, :], gb2[..., 0, :]
        a, da, t = (_scratch(w, rows, self.hidden) for _ in range(3))
        p, s = _scratch(w, rows, self.classes), _scratch(w, rows, 1)
        daT, pT = da.mT, p.mT
        n, one = np.array(rows, dtype=float), np.array(1.0)
        softmax = _softmax_fn(p, s)
        matmul, add, subtract, multiply, divide, tanh, add_reduce = (
            np.matmul, np.add, np.subtract, np.multiply, np.divide, np.tanh, np.add.reduce)

        def gradient(X, Y):
            matmul(X, W1T, a)
            add(a, b1, a)
            tanh(a, a)
            matmul(a, W2T, p)
            add(p, b2, p)
            softmax()
            subtract(p, Y, p)
            divide(p, n, p)
            matmul(p, W2, da)
            multiply(a, a, t)
            subtract(one, t, t)
            multiply(da, t, da)
            matmul(daT, X, gW1)
            add_reduce(da, -2, None, gb1_0)
            matmul(pT, a, gW2)
            add_reduce(p, -2, None, gb2_0)
        return gradient


LEARNER_KINDS = ("logreg", "mlp")


def make_learner(kind: str, classes: int, feature_dim: int, hidden: int = 16):
    if kind == "logreg":
        return LogisticRegressionLearner(classes, feature_dim)
    if kind == "mlp":
        return MLPLearner(classes, feature_dim, hidden)
    raise ValueError(f"unknown learner kind: {kind!r}")


def _workspace(learner, starts, n, bs, d):
    """What a stack of updates from starts trains in on shards of n rows of
    d features in batches of bs: the parameters w, (K, P), or (P,) for a
    lone update, set to the starts; the gradient buffer g laid out like w;
    np.eye(classes); the chunk span; and each chunk's first row, the views
    its features and labels are gathered into, and every batch's views
    with the gradient function of the batch's length (see local_sgd). A
    bias column is set to 1 here and never written again."""
    k = len(starts)
    w = np.array(starts[0] if k == 1 else starts, dtype=float)
    g = np.empty_like(w)
    span = max(bs, n if k == 1 else n // k // bs * bs)
    chunk = w.shape[:-1] + (min(span, n),)
    X = np.empty(chunk + (d + learner.bias_column,))
    X[..., d:] = 1.0
    Y = np.empty(chunk + (learner.classes,))
    steps = {m: learner._gradient_fn(w, g, m) for m in {min(bs, n), n % bs} if m}
    chunks = []
    for lo in range(0, n, span):
        size = min(span, n - lo)
        Xc, Yc = X[..., :size, :], Y[..., :size, :]
        chunks.append((lo, Xc[..., :d], Yc, [
            (Xc[..., b:b + bs, :], Yc[..., b:b + bs, :], steps[min(bs, size - b)])
            for b in range(0, size, bs)
        ]))
    return w, g, np.eye(learner.classes), span, chunks


def local_sgd(
    learner,
    starts,
    data: LocalDataset,
    shards,
    profile: ComputeProfile,
    seeds,
) -> np.ndarray:
    """Run local mini-batch SGD for a stack of K updates; return (K, P).

    Update i starts from starts[i], trains on the rows shards[i] of data and
    shuffles with a generator seeded by seeds[i]; row i of the result is
    bitwise what update i gives when trained alone. The shards must share
    one length, so that every update steps through the same batch
    boundaries and the stack pays numpy's per-call cost once per batch for
    all K updates. A lone update (K = 1) trains without the stack axis.

    Each of the local_iters epochs draws every update's permutation of its
    shard, then gathers the shuffled rows of data one chunk at a time, in
    one indexing per chunk: a lone update's whole epoch, else n // K rows
    per update, rounded down to a multiple of batch_size (at least one
    batch), so the stack holds no more rows than one update's whole epoch.
    Each batch writes the gradient into one buffer laid out like the
    parameters, which are then updated in place, with eta as a 0-d array.

    The parameters, the gradient, the chunk buffers and the views of every
    batch with its gradient function (one per batch length) form the
    workspace, set up before the first epoch. The rows of a learner with a
    bias column end in a 1 that the chunk buffer keeps, so the gather
    writes only the features before it. A stack builds its own workspace
    and returns its parameters. A lone update trains in a workspace the
    learner keeps in its `_workspaces` dict, one per (shard length,
    batch_size, feature count), for as long as the learner lives: each
    call copies its start into the workspace's parameters and returns a
    copy of them, so no result aliases the workspace. Each kept workspace
    holds one more copy of a shard's rows (with the bias column, if any)
    and their one-hot labels.
    """
    n, bs, k = len(shards[0]), profile.batch_size, len(shards)
    if any(len(rows) != n for rows in shards):
        raise ValueError("stacked shards must share one length")
    d = data.features.shape[1]
    # a stack's workspace lives for the call, a lone update's in the learner
    workspaces = learner._workspaces if k == 1 else {}
    key = (n, bs, d)
    workspace = workspaces.get(key)
    if workspace is None:
        workspace = workspaces[key] = _workspace(learner, starts, n, bs, d)
    else:
        workspace[0][...] = starts[0]
    w, g, eye, span, chunks = workspace
    rngs = [np.random.default_rng(seed) for seed in seeds]
    eta = np.array(profile.eta, dtype=float)
    features, labels, multiply, subtract = data.features, data.labels, np.multiply, np.subtract
    for _ in range(profile.local_iters):
        orders = [rng.permutation(n) for rng in rngs]
        for lo, Xg, Yc, batches in chunks:
            idx = shards[0][orders[0]] if k == 1 else np.stack(
                [rows[order[lo:lo + span]] for rows, order in zip(shards, orders)])
            features.take(idx, 0, Xg)
            eye.take(labels[idx], 0, Yc)
            for Xb, Yb, step in batches:
                step(Xb, Yb)
                multiply(g, eta, g)
                subtract(w, g, w)
    return w[None].copy() if k == 1 else w


def partition_non_iid(
    dataset: LocalDataset,
    groups: list[list[int]],
    labels_per_group: int,
    seed: int = 0,
) -> dict[int, np.ndarray]:
    """Label-skewed split: group g keeps labels [g*lpg, (g+1)*lpg).

    Each label's samples are shuffled deterministically and dealt round-robin
    to the group's satellites. Returns satellite id -> the sorted row
    indices of its shard, in group order; the shards are pairwise disjoint
    and their union is every row of the dataset.
    """
    rng = np.random.default_rng(seed)
    n_labels = labels_per_group * len(groups)
    if np.any(dataset.labels >= n_labels) or np.any(dataset.labels < 0):
        raise ValueError(
            f"dataset labels must lie in [0, {n_labels}) to divide across groups"
        )
    shards: dict[int, list[np.ndarray]] = {
        k: [np.empty(0, dtype=np.intp)] for g in groups for k in g
    }
    for g_idx, members in enumerate(groups):
        if not members:
            raise ValueError(f"group {g_idx} has no satellites")
        group_labels = range(g_idx * labels_per_group, (g_idx + 1) * labels_per_group)
        for label in group_labels:
            idx = np.flatnonzero(dataset.labels == label)
            if len(idx) < len(members):
                raise ValueError(
                    f"label {label}: {len(idx)} samples cannot cover "
                    f"{len(members)} satellites"
                )
            idx = rng.permutation(idx)
            for i, k in enumerate(members):
                shards[k].append(idx[i::len(members)])
    return {k: np.sort(np.concatenate(v)) for k, v in shards.items()}


def evaluate_accuracy(learner, params: np.ndarray, test_set: LocalDataset) -> float:
    """Fraction of argmax-correct predictions on the test set."""
    if test_set.size == 0:
        raise ValueError("test set is empty")
    pred = learner.predict(params, test_set.features)
    return int(np.count_nonzero(pred == test_set.labels)) / test_set.size


def generate_synthetic_task(
    classes: int,
    feature_dim: int,
    samples_per_class: int,
    seed: int,
    spread: float = 1.0,
    test_samples_per_class: int | None = None,
) -> tuple[LocalDataset, LocalDataset]:
    """Gaussian-blob multiclass data with unit-norm class centers.

    spread scales the per-class noise; small spread makes the task linearly
    separable. Deterministic under seed; train and test draws are disjoint.
    """
    if (classes < 2 or feature_dim < 1 or samples_per_class < 1
            or (test_samples_per_class is not None and test_samples_per_class < 1)):
        raise ValueError("sizes must be positive (classes >= 2)")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, feature_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    n_test = test_samples_per_class or max(1, samples_per_class // 5)

    def draw(per_class):
        X = np.empty((classes * per_class, feature_dim))
        y = np.empty(classes * per_class, dtype=int)
        for c in range(classes):
            lo = c * per_class
            X[lo:lo + per_class] = centers[c] + spread * rng.standard_normal(
                (per_class, feature_dim)
            )
            y[lo:lo + per_class] = c
        return LocalDataset(X, y)

    return draw(samples_per_class), draw(n_test)
