"""Frozen-encoder evaluation: cosine kNN readout and a linear probe."""

from __future__ import annotations

import warnings

import numpy as np


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    return X / norms


def knn_readout(train_emb, train_labels, test_emb, test_labels, k: int) -> float:
    """Cosine-similarity k-nearest-neighbour accuracy with majority vote;
    ties are broken by the summed similarity of the tied classes."""
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    if train_emb.size == 0 or test_emb.size == 0:
        raise ValueError("empty embedding set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_train = train_emb.shape[0]
    if k > n_train:
        warnings.warn(f"k={k} exceeds train size {n_train}; clipping", stacklevel=2)
        k = n_train
    sims = _normalize_rows(test_emb) @ _normalize_rows(train_emb).T
    num_classes = int(train_labels.max()) + 1
    correct = 0
    # argpartition then exact sort of the k slice keeps this O(n log k)
    top = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
    for i in range(test_emb.shape[0]):
        idx = top[i]
        labels = train_labels[idx]
        votes = np.bincount(labels, minlength=num_classes)
        best = votes.max()
        tied = np.nonzero(votes == best)[0]
        if tied.size == 1:
            pred = tied[0]
        else:
            sim_sums = np.bincount(labels, weights=sims[i, idx], minlength=num_classes)
            pred = tied[np.argmax(sim_sums[tied])]
        correct += int(pred == test_labels[i])
    return correct / test_emb.shape[0]


def fit_linear_probe(train_emb, train_labels, epochs: int, lr: float):
    """Multinomial logistic regression by full-batch gradient descent from a
    zero initialization. Returns (W, b)."""
    X = np.asarray(train_emb, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    num_classes = int(y.max()) + 1
    if num_classes < 2:
        raise ValueError("linear probe needs at least 2 classes")
    n, d = X.shape
    W = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        logits = X @ W + b
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        err = (probs - onehot) / n
        W -= lr * (X.T @ err)
        b -= lr * err.sum(axis=0)
    return W, b


def linear_probe(train_emb, train_labels, test_emb, test_labels,
                 epochs: int, lr: float) -> float:
    """Test accuracy of the probe fitted on frozen train embeddings."""
    test_emb = np.asarray(test_emb, dtype=np.float64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    W, b = fit_linear_probe(train_emb, train_labels, epochs=epochs, lr=lr)
    preds = np.argmax(test_emb @ W + b, axis=1)
    return float(np.mean(preds == test_labels))
