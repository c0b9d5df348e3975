"""RKHS kernels, Gram matrices, and their analytic input gradients.

Three kernel families are supported:

* ``linear``:  k(a, b) = a.b
* ``rbf``:     k(a, b) = exp(-||a - b||^2 / (2 sigma_sq))
* ``tanh``:    k(a, b) = tanh(-gamma * a.b + bias), with an optional switch
  to flip the slope to +gamma (the default sign makes similarity decrease
  in a.b, which is unusual but is the documented behaviour).

All math is done in double precision. Gram matrices are computed exactly,
with the RBF squared distance expanded as ||a||^2 + ||b||^2 - 2 a.b and
clamped at zero to avoid tiny negative round-off before exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("linear", "rbf", "tanh")


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate and its hyperparameters.

    ``sigma_sq`` is the RBF bandwidth (must be positive for rbf),
    ``gamma`` and ``bias`` parameterize the tanh kernel; all three must be
    finite, whatever the kind. ``positive_gamma`` flips the tanh slope
    from the default -gamma to +gamma.
    """

    kind: str = "rbf"
    sigma_sq: float = 1.0
    gamma: float = 1.0
    bias: float = 0.0
    positive_gamma: bool = False

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        for name in ("sigma_sq", "gamma", "bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"kernel.{name} must be finite, got {getattr(self, name)}")
        if self.kind == "rbf" and not self.sigma_sq > 0:
            raise ValueError(f"rbf kernel requires sigma_sq > 0, got {self.sigma_sq}")


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _tanh_slope(spec: KernelSpec) -> float:
    return spec.gamma if spec.positive_gamma else -spec.gamma


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Evaluate k(a, b) for two vectors of equal dimension."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_same_dim(a, b)
    if spec.kind == "linear":
        return float(a @ b)
    if spec.kind == "rbf":
        sq = float(a @ a) + float(b @ b) - 2.0 * float(a @ b)
        return float(np.exp(-max(sq, 0.0) / (2.0 * spec.sigma_sq)))
    return float(np.tanh(_tanh_slope(spec) * float(a @ b) + spec.bias))


def gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Pairwise kernel matrix between the columns of A (d x m) and B (d x n).

    Entry (i, j) is ``kernel_eval(spec, A[:, i], B[:, j])``. For the linear
    and rbf kinds, ``gram(spec, A, A)`` is symmetric positive semidefinite.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError(f"A and B must be 2-d (columns are points), got {A.shape} and {B.shape}")
    _check_same_dim(A, B)
    inner = A.T @ B
    if spec.kind == "linear":
        return inner
    if spec.kind == "rbf":
        sq = np.add.outer(np.sum(A * A, axis=0), np.sum(B * B, axis=0))
        inner *= 2.0
        sq -= inner
        np.maximum(sq, 0.0, out=sq)
        np.divide(sq, -2.0 * spec.sigma_sq, out=sq)
        return np.exp(sq, out=sq)
    return np.tanh(_tanh_slope(spec) * inner + spec.bias)


def _grad_scale(spec: KernelSpec, kvals):
    """Coefficient c with dk(a, b)/db = c (a - b) for rbf and c a for linear
    and tanh, as a function of the kernel value k = k(a, b):

    linear: 1
    rbf:    k / sigma_sq
    tanh:   slope * (1 - k^2)
    """
    if spec.kind == "rbf":
        return kvals / spec.sigma_sq
    if spec.kind == "tanh":
        return _tanh_slope(spec) * (1.0 - kvals * kvals)
    return np.ones_like(kvals)


def kernel_grad(spec: KernelSpec, a, b) -> np.ndarray:
    """Gradient of k(a, b) with respect to the second argument b.

    a and b are two d-vectors, or a d x m matrix and a d-vector in either
    order. With a matrix, pair i is its column i with the vector, and
    column i of the d x m result is that pair's gradient in its second
    member.

    linear: a
    rbf:    k(a, b) * (a - b) / sigma_sq
    tanh:   slope * (1 - tanh(slope * a.b + bias)^2) * a
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == b.ndim == 1:
        c = _grad_scale(spec, kernel_eval(spec, a, b))
    elif {a.ndim, b.ndim} == {1, 2}:
        a, b = a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1)
        c = _grad_scale(spec, gram(spec, a, b).ravel())
    else:
        raise ValueError(f"kernel_grad takes two d-vectors, or a d x m matrix and a d-vector, "
                         f"got shapes {a.shape} and {b.shape}")
    return c * (a - b) if spec.kind == "rbf" else c * a


def gram_vjp(spec: KernelSpec, A, B, K, W):
    """Gradients (dA, dB) of <W, K> with respect to A and B, where
    K = gram(spec, A, B) is passed in and W has K's shape.

    With M = W * c(K) (``_grad_scale``), dA = B M' and dB = A M; rbf also
    subtracts A diag(rowsum M) from dA and B diag(colsum M) from dB. For
    the linear kernel c = 1 and M is W itself; otherwise M is the one
    buffer of K's size made here. W and K are not written.
    """
    if spec.kind == "linear":
        M = W
    else:
        M = _grad_scale(spec, K)
        M *= W
    dA = B @ M.T
    dB = A @ M
    if spec.kind == "rbf":
        dA -= A * np.sum(M, axis=1)
        dB -= B * np.sum(M, axis=0)
    return dA, dB
