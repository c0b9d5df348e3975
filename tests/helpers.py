"""Shared test utilities: finite differences and random instance builders."""

import numpy as np

from mmcl import KernelSpec, build_instance
from mmcl.loss import negative_indices


def rel_err(a, b, floor=1e-12) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)


def central_diff(f, x, h=1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def unit_columns(rng, d, n) -> np.ndarray:
    X = rng.standard_normal((d, n))
    return X / np.linalg.norm(X, axis=0, keepdims=True)


def random_instance(rng, n, C=100.0, beta=0.1, sigma_sq=None, d=8):
    """Random reduced-dual instance from unit embeddings and an RBF kernel."""
    if sigma_sq is None:
        sigma_sq = float(rng.uniform(0.25, 4.0))
    spec = KernelSpec(kind="rbf", sigma_sq=sigma_sq)
    z_pos = unit_columns(rng, d, 1)[:, 0]
    Z_neg = unit_columns(rng, d, n)
    return build_instance(spec, z_pos, Z_neg, C, beta)


def rotated_spectrum_delta(rng, eigenvalues) -> np.ndarray:
    """Symmetric matrix with the given spectrum under a random rotation."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    n = eigenvalues.size
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * eigenvalues) @ Q.T


def anchor_deltas(v1, v2, spec, beta) -> np.ndarray:
    """(N, 2N-2, 2N-2) stack of every anchor's dual matrix D_k, each rebuilt
    from its embeddings by ``build_instance``: anchor k's positive is
    column k of view 1, its negatives the other columns of both views in
    ``negative_indices`` order. A per-anchor reference for the batched
    solvers, which never build this stack."""
    E = np.concatenate([v1, v2], axis=1)
    return np.stack([build_instance(spec, E[:, k], E[:, cols], 1.0, beta).delta
                     for k, cols in enumerate(negative_indices(v1.shape[1]))])


class RecordingOperator:
    """A ``svm._pgd_batched`` operator that keeps every input A and product
    D A it makes, from which each instance's objective trace is rebuilt."""

    def __init__(self, matvec):
        self.matvec = matvec
        self.calls = []

    def __call__(self, A):
        Q = self.matvec(A)
        self.calls.append((A.copy(), Q.copy()))
        return Q

    def traces(self, b, iterations):
        """Row i's objectives 1/2 a'Da - b_i'a at its first iterations[i] + 1
        operator inputs: its start, then the point of every step it took
        (an instance steps on every product until it freezes)."""
        objectives = np.stack([0.5 * np.sum(A * Q, axis=1) - np.sum(b * A, axis=1) for A, Q in self.calls])
        return [objectives[:m + 1, i] for i, m in enumerate(iterations)]
