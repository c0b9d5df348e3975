"""Max-margin contrastive loss, its gradients, and the InfoNCE baseline.

The max-margin loss for one anchor is

    loss = alpha' (k(Z-, z) - k(z+, z) 1)

where alpha comes from an SVM dual solve on (z+, Z-) and is treated as a
constant during differentiation: gradients reach the embeddings only
through the kernel evaluations, never through the solver. The SVM decision
function w(z) = alpha' (k(z+, z) 1 - k(Z-, z)) is the negated loss.

``batch_loss`` applies this per anchor over a two-view batch: anchor k uses
view1[k] as the SVM positive, view2[k] as the scored point, and the other
2(N-1) columns of both views as negatives. It solves all N duals at once
and returns their solutions as one (N, 2N-2) array; the loss and its
gradient over all anchors come from one ``kernels.gram_vjp`` call, as do
those of ``nce_batch_loss``. The per-anchor functions (``mmcl_loss``,
``mmcl_grad``, ``nce_loss``, ``nce_grad``) are the references they are
tested against.

Every anchor's dual matrix D_k is a principal submatrix of the shared
2N x 2N matrix M = K + beta I plus a rank-2 term, and no batched method
builds the (N, 2N-2, 2N-2) stack of D_k. ``pgd`` runs on every anchor at
once through one operator (``_dual_operator``) whose product with the
N x 2N block of alphas is one GEMM with M, and each PGD step makes one
such product. Its face steps read the blocks D_k[F,F] of the free
coordinates F from M and the rank-2 term, a few anchors at a time, and
search along the Newton direction on them without a further product.
``inv`` factorizes M once and derives each clip(2 D_k^{-1} 1, 0, C) by a
two-index downdate and a Woodbury update (Hager 1989, "Updating the
inverse of a matrix"). Its definiteness policy
is that of the per-anchor ``svm.solve_inv``: an anchor whose D_k is not
positive definite raises ``SingularInstanceError``, decided from the
inertia of M (Haynsworth) rather than by factorizing D_k.
Only the slow ``oracle`` reference assembles D_k, one anchor at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .kernels import KernelSpec, gram, gram_vjp, grad_wrt_each_column, grad_wrt_second, kernel_grad
from .svm import (SingularInstanceError, SolverConfig, SvmInstance, assemble_delta,
                  resolve_step_sizes, solve_oracle, _check_C_beta, _draw_alpha0, _pgd_batched)

_LINEAR = KernelSpec(kind="linear")


@dataclass
class LossBatch:
    """One anchor's view of a batch: scored point z, SVM positive z_pos,
    negatives Z_neg (d x n columns), and the solved dual weights alpha."""

    z: np.ndarray
    z_pos: np.ndarray
    Z_neg: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        self.z_pos = np.asarray(self.z_pos, dtype=np.float64)
        self.Z_neg = np.asarray(self.Z_neg, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        d = self.z.shape[0]
        if self.z_pos.shape != (d,) or self.Z_neg.ndim != 2 or self.Z_neg.shape[0] != d:
            raise ValueError(
                f"shape mismatch: z {self.z.shape}, z_pos {self.z_pos.shape}, Z_neg {self.Z_neg.shape}")
        if self.alpha.shape != (self.Z_neg.shape[1],):
            raise ValueError(
                f"alpha length {self.alpha.shape} does not match {self.Z_neg.shape[1]} negatives")


@dataclass
class LossGrads:
    d_z: np.ndarray
    d_z_pos: np.ndarray
    d_Z_neg: np.ndarray


def mmcl_loss(batch: LossBatch, spec: KernelSpec) -> float:
    """alpha' (k(Z-, z) - k(z+, z) 1)."""
    k_neg = gram(spec, batch.Z_neg, batch.z[:, None])[:, 0]
    k_pos = gram(spec, batch.z_pos[:, None], batch.z[:, None])[0, 0]
    return float(batch.alpha @ (k_neg - k_pos))


def decision_function(batch: LossBatch, spec: KernelSpec) -> float:
    """SVM score of z: alpha' (k(z+, z) 1 - k(Z-, z)); positive means z is
    classified on the positive side."""
    return -mmcl_loss(batch, spec)


def mmcl_grad(batch: LossBatch, spec: KernelSpec) -> LossGrads:
    """Gradients of ``mmcl_loss`` w.r.t. z, z_pos, and each negative column,
    with alpha held constant."""
    alpha = batch.alpha
    alpha_sum = float(np.sum(alpha))
    # d/dz: sum_i alpha_i dk(z_i-, z)/dz - (sum alpha) dk(z+, z)/dz
    d_z = grad_wrt_second(spec, batch.Z_neg, batch.z) @ alpha
    d_z -= alpha_sum * kernel_grad(spec, batch.z_pos, batch.z)
    # d/dz+: -(sum alpha) dk(z, z+)/dz+  (kernels are symmetric)
    d_z_pos = -alpha_sum * kernel_grad(spec, batch.z, batch.z_pos)
    # d/dz_i-: alpha_i dk(z, z_i-)/dz_i-
    d_Z_neg = grad_wrt_each_column(spec, batch.z, batch.Z_neg) * alpha[None, :]
    return LossGrads(d_z=d_z, d_z_pos=d_z_pos, d_Z_neg=d_Z_neg)


def fn_correct(alpha: np.ndarray, C: float, tol: float = 1e-9) -> np.ndarray:
    """False-negative correction: zero every coordinate at the box bound C.

    Equality is tested with absolute tolerance ``tol`` since solver
    projection sets boundary values exactly but the least-squares clip can
    leave round-off. Idempotent; a no-op for C = inf.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if not math.isfinite(C):
        return alpha.copy()
    return np.where(np.abs(alpha - C) <= tol, 0.0, alpha)


def nce_loss(z, z_pos, Z_neg, temperature: float) -> float:
    """InfoNCE: -log[ g(z,z+) / (g(z,z+) + sum_i g(z,z_i-)) ],
    g(a, b) = exp(a.b / temperature)."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(z, dtype=np.float64)
    z_pos = np.asarray(z_pos, dtype=np.float64)
    Z_neg = np.asarray(Z_neg, dtype=np.float64)
    s_pos = float(z @ z_pos) / temperature
    s_neg = (Z_neg.T @ z) / temperature
    # -s_pos + logsumexp([s_pos, s_neg...]), stabilized by the max score
    m = max(s_pos, float(np.max(s_neg)))
    lse = m + math.log(math.exp(s_pos - m) + float(np.sum(np.exp(s_neg - m))))
    return lse - s_pos


def nce_grad(z, z_pos, Z_neg, temperature: float) -> LossGrads:
    """Analytic softmax gradients of ``nce_loss`` w.r.t. all three slots."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(z, dtype=np.float64)
    z_pos = np.asarray(z_pos, dtype=np.float64)
    Z_neg = np.asarray(Z_neg, dtype=np.float64)
    s_pos = float(z @ z_pos) / temperature
    s_neg = (Z_neg.T @ z) / temperature
    m = max(s_pos, float(np.max(s_neg)))
    e_pos = math.exp(s_pos - m)
    e_neg = np.exp(s_neg - m)
    total = e_pos + float(np.sum(e_neg))
    p_pos = e_pos / total
    p_neg = e_neg / total
    d_z = ((p_pos - 1.0) * z_pos + Z_neg @ p_neg) / temperature
    d_z_pos = (p_pos - 1.0) * z / temperature
    d_Z_neg = np.outer(z, p_neg) / temperature
    return LossGrads(d_z=d_z, d_z_pos=d_z_pos, d_Z_neg=d_Z_neg)


@lru_cache(maxsize=32)
def negative_indices(N: int) -> np.ndarray:
    """Row k lists the 2(N-1) stacked-column indices of anchor k's negatives:
    view-1 columns of the other batch items, then their view-2 columns.
    The cached array is read-only."""
    idx = np.empty((N, 2 * (N - 1)), dtype=np.int64)
    all_idx = np.arange(2 * N)
    for k in range(N):
        others = np.concatenate([all_idx[:N][all_idx[:N] != k],
                                 all_idx[N:][all_idx[N:] != N + k]])
        idx[k] = others
    idx.setflags(write=False)
    return idx


def _stack_views(embeddings_view1, embeddings_view2):
    """(E, N): the two d' x N views side by side, columns 0..N-1 from view 1
    and N..2N-1 from view 2."""
    V1 = np.asarray(embeddings_view1, dtype=np.float64)
    V2 = np.asarray(embeddings_view2, dtype=np.float64)
    if V1.shape != V2.shape or V1.ndim != 2:
        raise ValueError(f"views must share shape d' x N, got {V1.shape} and {V2.shape}")
    N = V1.shape[1]
    if N < 2:
        raise ValueError(f"batch size must be >= 2 (no negatives exist for N={N})")
    return np.concatenate([V1, V2], axis=1), N


def _to_block(neg_idx: np.ndarray, values) -> np.ndarray:
    """N x 2N block with row k of ``values`` at anchor k's negatives
    ``neg_idx[k]`` and 0 at its own columns k and N+k."""
    N = neg_idx.shape[0]
    block = np.zeros((N, 2 * N))
    np.put_along_axis(block, neg_idx, values, axis=1)
    return block


def _dual_operator(K_full: np.ndarray, beta: float):
    """Every anchor's D_k as one ``svm._pgd_batched`` operator on an N x 2N
    block of alphas whose row k is zero at anchor k's own columns k and N+k.

    With M = K_full + beta I and R anchor k's negatives,
    D_k a = M[R,R] a + (1'a)(k_xx - K[k,R]) - (K[k,R]'a) 1, and one GEMM
    Q = A M holds M[R,R] a at row k's columns R and K[k,R]'a at Q[k,k],
    in O(N^3) time and O(N^2) memory. Returns ``(matvec, gather)``; the
    face-block gather takes D_k[i,j] = M[i,j] + H[k,i] + H[k,j] with
    H[k,i] = k_xx / 2 - K[k,i], for block columns i, j in R.
    """
    N = K_full.shape[0] // 2
    M = K_full + beta * np.eye(2 * N)
    k_xx = np.diag(K_full)[:N, None]
    P = k_xx - K_full[:N]
    H = 0.5 * k_xx - K_full[:N]
    # in the flattened N x 2N block, Q[k, k] sits at k (2N + 1) and Q[k, N + k] N further
    own_k, own_Nk = slice(0, None, 2 * N + 1), slice(N, None, 2 * N + 1)

    def matvec(A):
        Q = A @ M
        flat = Q.reshape(-1)
        Q -= flat[own_k][:, None]
        Q += np.add.reduce(A, axis=1)[:, None] * P
        flat[own_k] = 0.0
        flat[own_Nk] = 0.0
        return Q

    def gather(rows, cols):
        blocks = M.take(cols[:, :, None] * (2 * N) + cols[:, None, :])
        half = H.take(rows[:, None] * (2 * N) + cols)
        blocks += half[:, :, None]
        blocks += half[:, None, :]
        return blocks

    return matvec, gather


def _anchor_instance(K_full: np.ndarray, neg_idx: np.ndarray, k: int, C: float,
                     beta: float) -> SvmInstance:
    """Anchor k's dual instance, sliced from the full Gram matrix."""
    cols = neg_idx[k]
    k_xx, k_xY, K_YY = float(K_full[k, k]), K_full[k, cols], K_full[np.ix_(cols, cols)]
    return SvmInstance(k_xY=k_xY, K_YY=K_YY, k_xx=k_xx,
                       delta=assemble_delta(k_xx, k_xY, K_YY, beta), C=C, beta=beta)


def _count_signs(det, trace, sign):
    """Eigenvalues of the given sign of symmetric 2x2 matrices, from their
    determinants and traces (a zero determinant counts as neither)."""
    return (det < 0) + 2 * ((det > 0) & (sign * trace > 0))


def _inv_batched(K_full: np.ndarray, neg_idx: np.ndarray, beta: float, C: float) -> np.ndarray:
    """clip(2 D_k^{-1} 1, 0, C) for every anchor k from one LDL' factorization
    of M = K_full + beta I.

    Anchor k's dual matrix is a principal submatrix of M plus a rank-2
    term: D_k = M[R,R] + U W U' with S = {k, N+k}, R the other indices,
    U = [1, M[R,k]] and W = [[k_xx, -1], [-1, 0]]. With P = M^{-1} and
    Q = P[S,S], the inverse of M[R,R] is P[R,R] - P[R,S] Q^{-1} P[S,R] and
    M[R,R]^{-1} M[R,k] = -P[R,S] Q^{-1} e_1. Woodbury with the 2x2
    capacitance cap = W^{-1} + U' M[R,R]^{-1} U then gives
    D_k^{-1} 1 = M[R,R]^{-1} U cap^{-1} W^{-1} e_1, so past the inverse
    every anchor costs O(N) scalars and one combination of columns of P.

    D_k must be positive definite, as ``svm.solve_inv``'s Cholesky
    requires. By Haynsworth inertia additivity
    n_neg(D_k) = n_neg(M) - n_neg(Q) + n_pos(cap) - 1, and D_k is singular
    exactly when cap is. M need not be definite, only nonsingular; its
    inertia is that of the block-diagonal factor (Sylvester), where every
    2x2 Bunch-Kaufman pivot has one negative eigenvalue. Non-finite kernel
    values give NaN alphas, as the iterative solvers do.
    """
    N = neg_idx.shape[0]
    if not np.all(np.isfinite(K_full)):
        return np.full(neg_idx.shape, np.nan)
    M = K_full + beta * np.eye(2 * N)
    ldu, ipiv, info = lapack.dsytrf(M, lower=1)
    if info == 0:
        P, info = lapack.dsytri(ldu, ipiv, lower=1)
        P = np.tril(P) + np.tril(P, -1).T
    # singular to working precision: 1-norm condition number >= 1 / (2N eps)
    if info != 0 or not (2 * N * np.finfo(np.float64).eps * np.max(np.sum(np.abs(M), axis=0))
                         * np.max(np.sum(np.abs(P), axis=0)) < 1.0):
        raise SingularInstanceError(
            f"K + beta I of the batch of {N} is singular (beta = {beta}), "
            "so the inv duals cannot be solved")
    k = np.arange(N)
    r = np.sum(P, axis=1)
    q_aa, q_ab, q_bb = P[k, k], P[k, N + k], P[N + k, N + k]
    q_det = q_aa * q_bb - q_ab * q_ab
    # s = P[R,S]' 1 and t = Q^{-1} s
    s_a = r[k] - q_aa - q_ab
    s_b = r[N + k] - q_ab - q_bb
    t_a = (q_bb * s_a - q_ab * s_b) / q_det
    t_b = (q_aa * s_b - q_ab * s_a) / q_det
    # cap = W^{-1} + H with W^{-1} = [[0, -1], [-1, -k_xx]]; H11 = 1' M[R,R]^{-1} 1,
    # H12 = -t_a, and H22 = M_kk - (Q^{-1})_11 by the Schur complement
    cap11 = np.sum(r) - 2.0 * (r[k] + r[N + k]) + q_aa + 2.0 * q_ab + q_bb - (s_a * t_a + s_b * t_b)
    cap12 = -t_a - 1.0
    cap22 = beta - q_bb / q_det
    cap_det = cap11 * cap22 - cap12 * cap12

    n_neg_M = np.count_nonzero(np.diag(ldu)[ipiv > 0] < 0) + np.count_nonzero(ipiv < 0) // 2
    n_neg = (n_neg_M - _count_signs(q_det, q_aa + q_bb, -1)
             + _count_signs(cap_det, cap11 + cap22, 1) - 1)
    definite = (n_neg == 0) & (q_det != 0) & (cap_det != 0) & np.isfinite(cap_det)
    if not np.all(definite):
        bad = int(np.argmin(definite))
        raise SingularInstanceError(
            f"anchor {bad} of {N}: D is not positive definite (beta = {beta}), "
            "so its inv dual clip(2 D^-1 1, 0, C) is not defined")

    # D^{-1} 1 = c1 M[R,R]^{-1} 1 + c2 M[R,R]^{-1} M[R,k] with c = cap^{-1} (0, -1)',
    # column k of X over the rows R
    c1, c2 = cap12 / cap_det, -cap11 / cap_det
    w_a = c1 * t_a + c2 * q_bb / q_det
    w_b = c1 * t_b - c2 * q_ab / q_det
    X = r[:, None] * c1 - P[:, :N] * (c1 + w_a) - P[:, N:] * (c1 + w_b)
    return np.clip(2.0 * np.take_along_axis(X.T, neg_idx, axis=1), 0.0, C)


def _accumulate_anchor_terms(spec, E, K_full, neg_idx, alphas):
    """Total loss and its gradient w.r.t. the stacked embeddings E for every
    anchor, reusing the batch Gram matrix. Row k of the N x 2N weight block
    W holds anchor k's alphas at its negatives and -sum(alpha) at its SVM
    positive, so the total is <W, K(E[:, N:], E)>. Matches the composition
    of ``mmcl_loss`` / ``mmcl_grad`` over anchors to float round-off."""
    N = neg_idx.shape[0]
    W = _to_block(neg_idx, alphas)
    W[np.arange(N), np.arange(N)] = -np.sum(alphas, axis=1)
    K_anchor = K_full[N:]
    d_anchor, d_E = gram_vjp(spec, E[:, N:], E, K_anchor, W)
    d_E[:, N:] += d_anchor
    return float(np.sum(W * K_anchor)), d_E


def batch_loss(embeddings_view1, embeddings_view2, spec: KernelSpec, C: float,
               beta: float, solver: SolverConfig, fn_correction: bool = False,
               method: str = "pgd"):
    """Per-anchor SVM solves and max-margin losses over a two-view batch.

    Both views are d' x N with aligned columns. For each anchor k the SVM
    positive is view1[:, k], the scored point is view2[:, k], and the
    negatives are the 2(N-1) other columns of both views, ordered as in
    ``negative_indices``. Returns ``(total_loss, grads1, grads2, alphas)``
    where grads1/grads2 are the accumulated loss gradients w.r.t. each
    view's embedding matrix and ``alphas`` is an (N, 2N-2) array whose row
    k is anchor k's dual vector (post-correction when ``fn_correction`` is
    set).

    ``method`` picks the dual solver: ``pgd`` runs one batched PGD over
    every anchor's dual through ``_dual_operator``, from each anchor's
    seeded ``svm._draw_alpha0`` start, ``oracle`` is the slow reference,
    ``solve_oracle`` on each anchor's assembled D_k in turn, and ``inv``
    takes every anchor's clip(2 D_k^{-1} 1, 0, C) from one factorization of
    the 2N x 2N matrix K + beta I (see ``_inv_batched``). ``pgd`` and
    ``inv`` assemble no D_k: they cost O(N^2) memory, and O(N^3) time per
    ``inv`` call or per PGD iteration, each of which is one operator
    product (see ``svm._pgd_batched``). Every few iterations PGD also
    solves, for each anchor whose free set has settled, one system in the
    free coordinates, and searches along its solution projected onto the
    box, which reaches the face minimizer when it lies in the box;
    ``solver.max_iters`` counts these steps too. An anchor whose projected
    gradient is not finite (from non-finite embeddings) stops at once with
    NaN alphas. ``inv`` raises
    ``SingularInstanceError`` naming the first anchor whose D_k is not
    positive definite, exactly the anchors ``svm.solve_inv`` rejects
    (possible with the indefinite tanh kernel), and when K + beta I is
    singular to working precision (beta = 0 with a repeated column, or
    by chance with tanh). Every method rejects C <= 0 and beta < 0 with
    the ValueError an ``SvmInstance`` raises.

    ``total_loss`` uses the alphas solved here for this batch. It scales
    with each anchor's alpha_x = alpha' 1, which shrinks as the margin
    grows, so across training it may rise toward zero while the loss at
    fixed alpha, which the gradients describe, still falls.
    """
    E, N = _stack_views(embeddings_view1, embeddings_view2)
    if method not in ("pgd", "inv", "oracle"):
        raise ValueError(f"unknown solver method {method!r}")
    _check_C_beta(C, beta)
    K_full = gram(spec, E, E)
    neg_idx = negative_indices(N)
    if method == "inv":
        alphas = _inv_batched(K_full, neg_idx, beta, C)
    elif method == "pgd":
        matvec, gather = _dual_operator(K_full, beta)
        b = _to_block(neg_idx, 2.0)
        alpha0 = _to_block(neg_idx, np.stack([_draw_alpha0(2 * N - 2, C, [solver.seed, k])
                                              for k in range(N)]))
        eta = resolve_step_sizes(matvec, b, solver.step_size)
        alpha_block, _, _, _ = _pgd_batched(
            matvec, gather, b, C, eta, alpha0, solver.max_iters, solver.tol, solver.nesterov)
        alphas = np.take_along_axis(alpha_block, neg_idx, axis=1)
    else:
        alphas = np.stack([solve_oracle(_anchor_instance(K_full, neg_idx, k, C, beta),
                                        tol=solver.tol).alpha for k in range(N)])

    if fn_correction:
        alphas = fn_correct(alphas, C)
    total, d_E = _accumulate_anchor_terms(spec, E, K_full, neg_idx, alphas)
    return total, d_E[:, :N].copy(), d_E[:, N:].copy(), alphas


def nce_batch_loss(embeddings_view1, embeddings_view2, temperature: float):
    """InfoNCE over the same anchor/negative layout as ``batch_loss``."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    E, N = _stack_views(embeddings_view1, embeddings_view2)
    # row k scores anchor k (column N+k) against every column; its own
    # column is masked out and the positive sits at column k
    inner = E[:, N:].T @ E
    scores = inner / temperature
    rows = np.arange(N)
    scores[rows, N + rows] = -np.inf
    m = np.max(scores, axis=1, keepdims=True)
    e = np.exp(scores - m)
    denom = np.sum(e, axis=1)
    total = float(np.sum(m[:, 0] + np.log(denom) - scores[rows, rows]))
    # d total / d inner: (softmax - one-hot of the positive) / temperature
    G = e / denom[:, None]
    G[rows, rows] -= 1.0
    G /= temperature
    d_anchor, d_E = gram_vjp(_LINEAR, E[:, N:], E, inner, G)
    d_E[:, N:] += d_anchor
    return total, d_E[:, :N].copy(), d_E[:, N:].copy()
