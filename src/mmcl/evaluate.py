"""Frozen-encoder evaluation: cosine kNN readout and a linear probe.

Both readouts reject embeddings with a non-finite entry with a ValueError
that names the set (train or test) and the count of non-finite rows.

The kNN readout takes the k most cosine-similar train rows of each test row,
the lowest train indices among rows tied at the k-th similarity, and
predicts the majority label; a vote tie goes to the tied class with the
largest summed similarity, and an exact tie of those sums to the lowest
class id. Every test row is voted on at once, with no per-row loop. Its
one GEMM takes the normalised test rows already negated, so the
n_test × n_train similarities are made once and never rewritten.

The linear probe is multinomial logistic regression fitted by plain
full-batch gradient descent from zero: ``epochs`` steps of size ``lr`` on
the mean cross-entropy. Its iterates are held class-major: a (c, d + 1)
weight with the bias as its last column against the (d + 1, n) transposed
features with a ones row, so each step's logits are one (c, n) array whose
softmax reduces elementwise across c rows. A fit costs O(epochs · n · d · c).
Every array a fit uses is made before its first step: the transposed
features, the one-hot targets, the weights, the (c, n) logits, two length-n
reductions and a (c, d + 1) step. A step writes only into these, with
``out=`` ufunc calls, and makes no array of its own.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    return X / norms


def _check_finite(X: np.ndarray, which: str) -> None:
    bad = np.count_nonzero(~np.isfinite(X).all(axis=1))
    if bad:
        raise ValueError(f"{which} embeddings have {bad} of {X.shape[0]} rows with "
                         f"non-finite entries")


def knn_readout(train_emb, train_labels, test_emb, test_labels, k: int) -> float:
    """Cosine-similarity k-nearest-neighbour accuracy with majority vote;
    neighbours tied at the k-th similarity are taken by lowest train index,
    and vote ties are broken by the summed similarity of the tied classes,
    then by the lowest class id. It makes the normalised rows of each set,
    negates the test rows in place and makes one n_test × n_train array of
    negated similarities, which negation, being exact, keeps equal to the
    plain ones negated."""
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if train_emb.size == 0 or test_emb.size == 0:
        raise ValueError("empty embedding set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_finite(train_emb, "train")
    _check_finite(test_emb, "test")
    n_train, n_test = train_emb.shape[0], test_emb.shape[0]
    if k > n_train:
        warnings.warn(f"k={k} exceeds train size {n_train}; clipping", stacklevel=2)
        k = n_train
    # the test operand is negated, not the n_test x n_train product: the k
    # smallest are the nearest, and negation is exact, so every similarity
    # keeps its bits (a zero may change sign, which no comparison sees)
    neg_test = _normalize_rows(test_emb)
    np.negative(neg_test, out=neg_test)
    neg_sims = neg_test @ _normalize_rows(train_emb).T
    num_classes = int(train_labels.max()) + 1
    # argpartition keeps this O(n) per test row; the vote needs no order. A
    # row whose k-th similarity ties across the cut takes the tied rows of
    # lowest index, the first k of a stable sort of that row alone
    top = np.argpartition(neg_sims, kth=k - 1, axis=1)[:, :k]
    top_sims = np.take_along_axis(neg_sims, top, axis=1)
    cut = np.nonzero(np.count_nonzero(neg_sims <= top_sims.max(axis=1, keepdims=True), axis=1) > k)[0]
    if cut.size:
        top[cut] = np.argsort(neg_sims[cut], axis=1, kind="stable")[:, :k]
        top_sims[cut] = np.take_along_axis(neg_sims[cut], top[cut], axis=1)
    # one bin per (test row, class); within a bin the similarities are
    # summed in neighbour order, as a per-row bincount would
    bins = train_labels[top]
    bins += num_classes * np.arange(n_test)[:, None]
    size = n_test * num_classes
    votes = np.bincount(bins.ravel(), minlength=size).reshape(n_test, num_classes)
    sim_sums = -np.bincount(bins.ravel(), weights=top_sims.ravel(),
                            minlength=size).reshape(n_test, num_classes)
    tied = votes == votes.max(axis=1, keepdims=True)
    preds = np.argmax(np.where(tied, sim_sums, -np.inf), axis=1)
    return int(np.count_nonzero(preds == test_labels)) / n_test


def fit_linear_probe(train_emb, train_labels, epochs: int, lr: float):
    """Multinomial logistic regression by full-batch gradient descent from a
    zero initialization. Returns (W (d × c), b (c,)) with one column per
    class id 0 … max label, so an id absent from the labels still gets one.
    The arrays of the fit are made once, before the first step, and each
    of the ``epochs`` steps runs the same fixed sequence of ufunc and
    matmul calls into them, making no array. Raises ValueError on
    ``epochs`` < 1, an ``lr`` that is not positive and finite, fewer than
    2 distinct labels or non-finite embeddings."""
    if epochs < 1:
        raise ValueError(f"probe epochs must be >= 1, got {epochs}")
    if not 0 < lr < math.inf:
        raise ValueError(f"probe lr must be positive and finite, got {lr}")
    X = np.asarray(train_emb, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    _check_finite(X, "train")
    classes = np.unique(y).size
    if classes < 2:
        raise ValueError(f"linear probe needs at least 2 classes, got {classes}")
    num_classes = int(y.max()) + 1
    n, d = X.shape
    Xa = np.empty((d + 1, n))
    Xa[:d] = X.T
    Xa[d] = 1.0
    onehot = np.zeros((num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    Wb = np.zeros((num_classes, d + 1))
    logits = np.empty((num_classes, n))
    peak = np.empty(n)
    total = np.empty(n)
    step = np.empty((num_classes, d + 1))
    XaT = Xa.T
    scale = lr / n
    for _ in range(epochs):
        np.matmul(Wb, Xa, out=logits)
        np.maximum.reduce(logits, axis=0, out=peak)
        np.subtract(logits, peak, out=logits)
        np.exp(logits, out=logits)
        np.add.reduce(logits, axis=0, out=total)
        np.divide(logits, total, out=logits)
        np.subtract(logits, onehot, out=logits)
        np.matmul(logits, XaT, out=step)
        np.multiply(step, scale, out=step)
        np.subtract(Wb, step, out=Wb)
    return Wb[:, :d].T, Wb[:, d]


def linear_probe(train_emb, train_labels, test_emb, test_labels,
                 epochs: int, lr: float) -> float:
    """Test accuracy of the probe fitted on frozen train embeddings."""
    test_emb = np.asarray(test_emb, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    _check_finite(test_emb, "test")
    W, b = fit_linear_probe(train_emb, train_labels, epochs=epochs, lr=lr)
    preds = np.argmax(test_emb @ W + b, axis=1)
    return float(np.mean(preds == test_labels))
