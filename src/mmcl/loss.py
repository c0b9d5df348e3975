"""Max-margin contrastive loss, its gradients, and the InfoNCE baseline.

The max-margin loss for one anchor is

    loss = alpha' (k(Z-, z) - k(z+, z) 1)

where alpha comes from an SVM dual solve on (z+, Z-) and is treated as a
constant during differentiation: gradients reach the embeddings only
through the kernel evaluations, never through the solver. The SVM decision
function w(z) = alpha' (k(z+, z) 1 - k(Z-, z)) is the negated loss.

``batch_loss`` applies this per anchor over a two-view batch: anchor k uses
view1[k] as the SVM positive, view2[k] as the scored point, and the other
2(N-1) columns of both views as negatives. Its N duals live in one
N x 2N block of alphas, zero in row k at anchor k's own columns k and
N+k, from the dual solve to the gradient weights, and the loss and its
gradient over all anchors come from one ``kernels.gram_vjp`` call, as do
those of ``nce_batch_loss``. The per-anchor functions (``mmcl_loss``,
``mmcl_grad``, ``nce_loss``, ``nce_grad``) are the references they are
tested against.

Every anchor's dual matrix D_k is a principal submatrix of the batch's
2N x 2N matrix M = K + beta I plus a rank-2 term, and no batched method
builds the (N, 2N-2, 2N-2) stack of D_k. ``inv`` factorizes M once and
derives each clip(2 D_k^{-1} 1, 0, C) by a two-index downdate and a
Woodbury update (Hager 1989, "Updating the inverse of a matrix"). The
same factorization gives every anchor's definiteness verdict, from the
inertia of M (Haynsworth) rather than by factorizing D_k, and both
methods raise ``SingularInstanceError`` on a batch where some D_k is not
positive definite, as the per-anchor solvers of ``svm`` do on that D_k.
The factorization is LAPACK's Bunch-Kaufman ``dsytrf``, given the
optimal workspace it reports (queried once per size) so that it factors
by blocks once 2N exceeds its block size. ``inv`` builds M in one new
buffer, which ``dsytrf`` overwrites with the factor and ``dsytri`` with
M^{-1}; K itself is never written, since the gradient reuses it.
scipy.linalg is imported only where a matrix is factored, so that
``import mmcl`` and InfoNCE training do not load it. ``pgd`` starts every
anchor at that ``inv`` solution, the paper's truncated least-squares
approximation (the "alpha seeding" of DeCoste & Wagstaff 2000), and runs
on every anchor at once through one operator (``_dual_operator``) whose
product with the N x 2N block of alphas is one GEMM with M, built again
for it since ``inv`` overwrites its own; each PGD step makes one such
product. Its face steps, from the first step on, read the blocks D_k[F,F]
of each anchor's binding free set F (the free coordinates and those at a
bound whose gradient points into the box) from M and the rank-2 term,
stacked by size, and search along the Newton direction on them without a
further product. An anchor steps along its projected gradient only where
it takes no face step, with its step from a closed-form bound on ||D_k||_2
(``resolve_step_sizes``), computed for the batch the first time such a
step is taken; on recorded N = 32 training batches face steps take every
step and the bound is never computed. Nothing in this module assembles a
D_k; the per-anchor references of ``svm`` do, one anchor at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import KernelSpec, gram, gram_vjp, kernel_grad
from .svm import SingularInstanceError, SolverConfig, _check_C_beta, _pgd_batched, classify_support

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


def mmcl_grad(batch: LossBatch, spec: KernelSpec) -> LossGrads:
    """Gradients of ``mmcl_loss`` w.r.t. z, z_pos, and each negative column,
    with alpha held constant."""
    alpha = batch.alpha
    alpha_sum = float(np.sum(alpha))
    # d/dz: sum_i alpha_i dk(z_i-, z)/dz - (sum alpha) dk(z+, z)/dz
    d_z = kernel_grad(spec, batch.Z_neg, batch.z) @ alpha
    d_z -= alpha_sum * kernel_grad(spec, batch.z_pos, batch.z)
    # d/dz+: -(sum alpha) dk(z, z+)/dz+  (kernels are symmetric)
    d_z_pos = -alpha_sum * kernel_grad(spec, batch.z, batch.z_pos)
    # d/dz_i-: alpha_i dk(z, z_i-)/dz_i-
    d_Z_neg = kernel_grad(spec, batch.z, batch.Z_neg) * alpha[None, :]
    return LossGrads(d_z=d_z, d_z_pos=d_z_pos, d_Z_neg=d_Z_neg)


def fn_correct(alpha: np.ndarray, C: float, tol: float = 1e-9) -> np.ndarray:
    """False-negative correction: zero every coordinate at the box bound C,
    exactly those that ``svm.classify_support`` labels 2 under ``tol``.

    Equality is tested with absolute tolerance ``tol`` since solver
    projection sets boundary values exactly but the least-squares clip can
    leave round-off. Idempotent; a no-op for C = inf.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.where(classify_support(alpha, C, tol) == 2, 0.0, alpha)


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
    others = np.arange(2 * N) % N != np.arange(N)[:, None]
    idx = np.nonzero(others)[1].reshape(N, 2 * (N - 1))
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=32)
def _negative_flat_index(N: int) -> np.ndarray:
    """``negative_indices(N)`` as indices into a flattened N x 2N block, so
    that ``block.take`` gathers every anchor's alphas. The cached array is
    read-only."""
    flat = negative_indices(N) + 2 * N * np.arange(N)[:, None]
    flat.setflags(write=False)
    return flat


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


@lru_cache(maxsize=32)
def _upper_mask(n: int) -> np.ndarray:
    """(n, n) mask of the strict upper triangle. The cached array is
    read-only."""
    mask = ~np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=32)
def _dsytrf_lwork(n: int) -> int:
    """LAPACK's optimal ``dsytrf`` workspace for order n. Only with it does
    ``dsytrf`` run its blocked Bunch-Kaufman; with SciPy's default
    lwork = n it runs the unblocked one."""
    from scipy.linalg import lapack

    return int(lapack.dsytrf_lwork(n, lower=1)[0])


def _plus_beta_identity(K_full: np.ndarray, beta: float) -> np.ndarray:
    """M = K_full + beta I as a new array, with no identity temporary."""
    M = K_full.copy()
    M.flat[::len(M) + 1] += beta
    return M


def _zero_own_columns(block: np.ndarray) -> np.ndarray:
    """Zero every anchor k's own columns k and N+k of the N x 2N ``block``
    in place, and return it."""
    N = block.shape[0]
    block.flat[::2 * N + 1] = 0.0
    block.flat[N::2 * N + 1] = 0.0
    return block


def _dual_operator(K_full: np.ndarray, M: np.ndarray):
    """Every anchor's D_k as one ``svm._pgd_batched`` operator on an N x 2N
    block of alphas whose row k is zero at anchor k's own columns k and N+k.

    With M = K_full + beta I, which the caller builds and the operator
    only reads, and R anchor k's negatives,
    D_k a = M[R,R] a + (1'a)(k_xx - K[k,R]) - (K[k,R]'a) 1, and one GEMM
    Q = A M holds M[R,R] a at row k's columns R and K[k,R]'a at Q[k,k],
    in O(N^3) time and O(N^2) memory. Returns ``(matvec,
    gather)``; the face-block gather takes D_k[i,j] = M[i,j] + H[k,i] +
    H[k,j] with H[k,i] = k_xx / 2 - K[k,i], for block columns i, j in R.
    """
    N = K_full.shape[0] // 2
    k_xx = np.diag(K_full)[:N, None]
    P = k_xx - K_full[:N]
    H = 0.5 * k_xx - K_full[:N]

    def matvec(A):
        Q = A @ M
        Q -= Q.diagonal()[:, None]
        Q += np.add.reduce(A, axis=1)[:, None] * P
        return _zero_own_columns(Q)

    def gather(rows, cols):
        blocks = M.take(cols[:, :, None] * (2 * N) + cols[:, None, :])
        half = H.take(rows[:, None] * (2 * N) + cols)
        blocks += half[:, :, None]
        blocks += half[:, None, :]
        return blocks

    return matvec, gather


def _count_signs(det, trace, sign):
    """Eigenvalues of the given sign of symmetric 2x2 matrices, from their
    determinants and traces (a zero determinant counts as neither)."""
    return (det < 0) + 2 * ((det > 0) & (sign * trace > 0))


def _inv_batched(K_full: np.ndarray, beta: float, C: float) -> np.ndarray:
    """clip(2 D_k^{-1} 1, 0, C) for every anchor k from one LDL' factorization
    of the batch's M = K_full + beta I, once every D_k is known positive
    definite.

    Anchor k's dual matrix is a principal submatrix of M plus a rank-2
    term: D_k = M[R,R] + U W U' with S = {k, N+k}, R the other indices,
    U = [1, M[R,k]] and W = [[k_xx, -1], [-1, 0]]. With P = M^{-1} and
    Q = P[S,S], the inverse of M[R,R] is P[R,R] - P[R,S] Q^{-1} P[S,R] and
    M[R,R]^{-1} M[R,k] = -P[R,S] Q^{-1} e_1. Woodbury with the 2x2
    capacitance cap = W^{-1} + U' M[R,R]^{-1} U then gives
    D_k^{-1} 1 = M[R,R]^{-1} U cap^{-1} W^{-1} e_1, so past the inverse
    every anchor costs O(N) scalars and one combination of columns of P.

    By Haynsworth inertia additivity
    n_neg(D_k) = n_neg(M) - n_neg(Q) + n_pos(cap) - 1, and D_k is singular
    exactly when cap is. M need not be definite, only nonsingular; its
    inertia is that of the block-diagonal factor (Sylvester), where every
    2x2 Bunch-Kaufman pivot has one negative eigenvalue.

    M is built here as one new array, and K_full is never written. Its
    1-norm for the singularity test is taken first; then ``dsytrf`` runs
    blocked, with the workspace of ``_dsytrf_lwork``, on M.T, which is M
    in Fortran order, so that with ``overwrite_a`` it factors M's own
    buffer without a copy. The inertia is read from the factor's pivot
    diagonal before ``dsytri`` overwrites the factor, in the same buffer,
    with the lower triangle of P; block copies then mirror that triangle,
    and the C-ordered P.T serves as P.

    Returns a new N x 2N block of alphas, zero at the own columns. Raises
    ``SingularInstanceError`` naming the first anchor whose D_k is not
    positive definite, or M when it is singular to working precision.
    Non-finite kernel values give NaN alphas and reject no anchor.
    """
    N = K_full.shape[0] // 2
    M = _plus_beta_identity(K_full, beta)
    if not np.all(np.isfinite(M)):
        return _zero_own_columns(np.full((N, 2 * N), np.nan))
    from scipy.linalg import lapack

    norm_M = np.max(np.sum(np.abs(M), axis=0))
    P, ipiv, info = lapack.dsytrf(M.T, lower=1, lwork=_dsytrf_lwork(2 * N), overwrite_a=1)
    if info == 0:
        # the inertia of M, before dsytri overwrites the pivots
        n_neg_M = np.count_nonzero(P.diagonal()[ipiv > 0] < 0) + np.count_nonzero(ipiv < 0) // 2
        P, info = lapack.dsytri(P, ipiv, lower=1, overwrite_a=1)
        P[:N, N:] = P[N:, :N].T
        for half in (P[:N, :N], P[N:, N:]):
            np.copyto(half, half.T, where=_upper_mask(N))
        P = P.T
    # singular to working precision: 1-norm condition number >= 1 / (2N eps)
    if info != 0 or not (2 * N * np.finfo(np.float64).eps * norm_M
                         * np.max(np.sum(np.abs(P), axis=0)) < 1.0):
        raise SingularInstanceError(
            f"K + beta I of the batch of {N} is singular (beta = {beta}), "
            "so its duals are not positive definite")
    k = np.arange(N)
    r = np.sum(P, axis=1)
    q_aa, q_ab, q_bb = P[k, k], P[k, N + k], P[N + k, N + k]
    # a rejected anchor may divide by a zero determinant before the batch raises
    with np.errstate(divide="ignore", invalid="ignore"):
        q_det = q_aa * q_bb - q_ab * q_ab
        # s = P[R,S]' 1 and t = Q^{-1} s
        s_a = r[k] - q_aa - q_ab
        s_b = r[N + k] - q_ab - q_bb
        t_a = (q_bb * s_a - q_ab * s_b) / q_det
        t_b = (q_aa * s_b - q_ab * s_a) / q_det
        # cap = W^{-1} + H with W^{-1} = [[0, -1], [-1, -k_xx]]; H11 = 1' M[R,R]^{-1} 1,
        # H12 = -t_a, and H22 = M_kk - (Q^{-1})_11 by the Schur complement
        cap11 = (np.sum(r) - 2.0 * (r[k] + r[N + k]) + q_aa + 2.0 * q_ab + q_bb
                 - (s_a * t_a + s_b * t_b))
        cap12 = -t_a - 1.0
        cap22 = beta - q_bb / q_det
        cap_det = cap11 * cap22 - cap12 * cap12

        n_neg = (n_neg_M - _count_signs(q_det, q_aa + q_bb, -1)
                 + _count_signs(cap_det, cap11 + cap22, 1) - 1)
        definite = (n_neg == 0) & (q_det != 0) & (cap_det != 0) & np.isfinite(cap_det)
        if not definite.all():
            raise SingularInstanceError(
                f"anchor {int(np.argmin(definite))} of {N}: D is not positive definite "
                f"(beta = {beta})")

        # D^{-1} 1 = c1 M[R,R]^{-1} 1 + c2 M[R,R]^{-1} M[R,k] with c = cap^{-1} (0, -1)',
        # row k of X at the columns R
        c1, c2 = cap12 / cap_det, -cap11 / cap_det
        w_a = c1 * t_a + c2 * q_bb / q_det
        w_b = c1 * t_b - c2 * q_ab / q_det
        X = r * c1[:, None] - P[:N] * (c1 + w_a)[:, None] - P[N:] * (c1 + w_b)[:, None]
    np.multiply(_zero_own_columns(X), 2.0, out=X)
    return np.clip(X, 0.0, C, out=X)


def resolve_step_sizes(K_full: np.ndarray, beta: float, step_size) -> np.ndarray:
    """Each anchor's PGD step on its D_k: ``step_size``, or for "auto" the
    reciprocal of an upper bound on lambda_max(D_k), which is ||D_k||_2
    for the positive definite D_k that ``batch_loss`` accepts, from one
    symmetric eigenvalue solve of the batch and O(N) scalars per anchor.

    Centre the kernel at the mean of the batch's 2N points: with m the row
    means of K and m_ the mean of m, M_c = K - m1' - 1m' + m_ 11' + beta I.
    Then D_k = M_c[R,R] + T_k, R anchor k's negatives, where the rank-2
    term T_k = a 11' - u1' - 1u' has a = k_xx - m_ and u = K[k,R] - m[R].
    By Cauchy interlacing the spectrum of M_c[R,R] lies within that of
    M_c, and by Weyl lambda_max(D_k) <= lambda_max(M_c) + lambda_+(T_k).
    T_k = U W U' with U = [1, u] and W = [[a, -1], [-1, 0]] has as its
    largest eigenvalue lambda_+ >= 0 that of the 2x2 matrix W U'U, of
    trace a n - 2 s and determinant s^2 - n p, with n = |R|, s = 1'u and
    p = u'u. Centring keeps the bound closer than the uncentred
    ||K + beta I|| + ||T_k||. Non-finite kernel values give NaN steps, so
    PGD stops at once with NaN alphas.
    """
    N = K_full.shape[0] // 2
    if step_size != "auto":
        return np.full(N, float(step_size))
    if not np.all(np.isfinite(K_full)):
        return np.full(N, np.nan)
    m = np.mean(K_full, axis=1)
    m_mean = np.mean(m)
    centred = K_full - m[:, None]
    centred -= m[None, :] - m_mean
    centred.flat[::2 * N + 1] += beta
    eig = np.linalg.eigvalsh(centred)
    k, n = np.arange(N), 2 * N - 2
    U = K_full[:N] - m
    own_a, own_b = U[k, k], U[k, N + k]
    s = np.add.reduce(U, axis=1) - own_a - own_b
    p = np.einsum("ij,ij->i", U, U) - own_a * own_a - own_b * own_b
    half_trace = 0.5 * ((K_full[k, k] - m_mean) * n - 2.0 * s)
    root = np.sqrt(half_trace * half_trace + np.maximum(n * p - s * s, 0.0))
    return 1.0 / (eig[-1] + half_trace + root)


def _accumulate_anchor_terms(spec, E, K_full, W):
    """Total loss and its gradient w.r.t. the stacked embeddings E for every
    anchor, reusing the batch Gram matrix. Row k of the N x 2N weight block
    W holds anchor k's alphas at its negatives, -alpha_x at its SVM
    positive (column k) and 0 at its scored point (column N+k), so the
    total is <W, K(E[:, N:], E)>. Matches the composition of
    ``mmcl_loss`` / ``mmcl_grad`` over anchors to float round-off."""
    N = W.shape[0]
    K_anchor = K_full[N:]
    d_anchor, d_E = gram_vjp(spec, E[:, N:], E, K_anchor, W)
    d_E[:, N:] += d_anchor
    return float(np.vdot(W, K_anchor)), d_E


def batch_loss(embeddings_view1, embeddings_view2, spec: KernelSpec, C: float,
               beta: float, solver: SolverConfig, fn_correction: bool = False,
               method: str = "pgd"):
    """Per-anchor SVM solves and max-margin losses over a two-view batch.

    Both views are d' x N with aligned columns. For each anchor k the SVM
    positive is view1[:, k], the scored point is view2[:, k], and the
    negatives are the 2(N-1) other columns of both views, ordered as in
    ``negative_indices``. Returns ``(total_loss, grads1, grads2, alphas)``
    where grads1/grads2 are the accumulated loss gradients w.r.t. each
    view's embedding matrix, the halves of one new d' x 2N array, and
    ``alphas`` is an (N, 2N-2) array whose row k is anchor k's dual vector
    (post-correction when ``fn_correction`` is set). The views are not
    written, and no returned array shares memory with an input or with
    another call's output.

    ``method`` picks the dual solver, one of the paper's two: ``inv`` takes
    every anchor's clip(2 D_k^{-1} 1, 0, C) from one factorization of the
    2N x 2N matrix K + beta I, made and inverted in one buffer of its own
    (see ``_inv_batched``), and ``pgd`` runs one batched PGD over every
    anchor's dual through ``_dual_operator``, on a K + beta I built for it
    (see ``svm._pgd_batched`` for its face steps and convergence rule).
    The Gram matrix K is computed once and reused, unwritten, for the
    gradient. ``pgd`` starts each anchor at its ``inv`` solution, which
    ``max_iters = 0`` returns. Each step is a face step where one is
    accepted and a projected-gradient step otherwise, of length
    ``solver.step_size``, or for "auto" 1 / a closed-form bound on each
    ||D_k||_2 (see ``resolve_step_sizes``), computed only on the first
    step that needs it. Non-finite embeddings give NaN alphas. Both
    methods cost O(N^2) memory, and O(N^3) time per ``inv`` call or per
    PGD step.

    Any other ``method`` raises ValueError; the exact per-anchor
    ``svm.solve_oracle`` is a reference, not a batch method. Both methods
    raise ``SingularInstanceError`` naming the first anchor whose D_k is
    not positive definite, exactly the anchors the per-anchor solvers of
    ``svm`` reject (possible with the indefinite tanh kernel), and when
    K + beta I is singular to working precision (beta = 0 with a repeated
    column, or by chance with tanh). Both reject C <= 0 and beta < 0 with
    the ValueError an ``SvmInstance`` raises.

    ``total_loss`` uses the alphas solved here for this batch. It scales
    with each anchor's alpha_x = alpha' 1, which shrinks as the margin
    grows, so across training it may rise toward zero while the loss at
    fixed alpha, which the gradients describe, still falls.
    """
    E, N = _stack_views(embeddings_view1, embeddings_view2)
    if method not in ("pgd", "inv"):
        raise ValueError(f"unknown solver method {method!r}: batch_loss solves with 'pgd' or 'inv'")
    _check_C_beta(C, beta)
    K_full = gram(spec, E, E)
    block = _inv_batched(K_full, beta, C)
    if method == "pgd":
        matvec, gather = _dual_operator(K_full, _plus_beta_identity(K_full, beta))
        block, _, _ = _pgd_batched(
            matvec, gather, _zero_own_columns(np.full((N, 2 * N), 2.0)), C,
            lambda: resolve_step_sizes(K_full, beta, solver.step_size), block,
            solver.max_iters, solver.tol, solver.nesterov)
    if fn_correction:
        block = fn_correct(block, C)
    alphas = block.take(_negative_flat_index(N))
    np.fill_diagonal(block, -np.sum(alphas, axis=1))
    total, d_E = _accumulate_anchor_terms(spec, E, K_full, block)
    return total, d_E[:, :N], d_E[:, N:], alphas


def nce_batch_loss(embeddings_view1, embeddings_view2, temperature: float):
    """InfoNCE over the same anchor/negative layout as ``batch_loss``:
    anchor k is view2[:, k], its positive view1[:, k], and its negatives
    the other 2(N-1) columns of both views. Returns ``(total_loss, grads1,
    grads2)``, the sum of ``nce_loss`` over anchors and its gradients
    w.r.t. each view's d' x N embedding matrix, within round-off of the
    composition of ``nce_loss`` / ``nce_grad`` over anchors.

    The temperature scales the d' x N anchors before the one GEMM, whose
    N x 2N score buffer is the only step-sized array: the masking, the
    max-shift, the softmax and the gradient w.r.t. the scores are formed
    in it in place, and ``kernels.gram_vjp`` takes it as its weight W.
    The views are not written, and no returned array shares memory with
    an input or with another call's output.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    E, N = _stack_views(embeddings_view1, embeddings_view2)
    # row k scores anchor k (column N+k) against every column; its own
    # column is masked out and the positive sits at column k
    anchors = E[:, N:] / temperature
    S = anchors.T @ E
    rows = np.arange(N)
    S[rows, N + rows] = -np.inf
    m = np.max(S, axis=1)
    positives = S[rows, rows]
    S -= m[:, None]
    np.exp(S, out=S)
    denom = np.sum(S, axis=1)
    total = float(np.sum(m + np.log(denom) - positives))
    # d total / d scores: softmax - one-hot of the positive
    S /= denom[:, None]
    S[rows, rows] -= 1.0
    # the linear kernel's VJP reads no K, so S also stands in for it
    d_anchors, d_E = gram_vjp(_LINEAR, anchors, E, S, S)
    d_anchors /= temperature  # the chain rule through anchors = E[:, N:] / temperature
    d_E[:, N:] += d_anchors
    return total, d_E[:, :N], d_E[:, N:]
