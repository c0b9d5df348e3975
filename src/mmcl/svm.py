"""Reduced SVM dual: instance construction and three box-constrained QP solvers.

For a single positive embedding z+ and negatives Z-, eliminating the
positive's dual variable (alpha_x = alpha.1) reduces the soft-margin SVM
dual to

    minimize_{0 <= alpha <= C}  g(alpha) = 1/2 alpha' D alpha - 2 alpha'1

where D = k_xx 11' + K_YY - k_xY 1' - 1 k_xY' + beta I. The base matrix
(beta = 0, k_xx = 1) is the Gram matrix of the RKHS difference vectors
phi(z+) - phi(z_i-), hence PSD; beta > 0 makes it positive definite.

Three solvers are provided:

* ``solve_oracle`` -- cyclic exact coordinate minimization, run to a
  stationarity tolerance. Slowest, used as the reference optimum.
* ``solve_pgd``    -- m-step projected gradient, optionally Nesterov
  accelerated with gradient-based adaptive restart, at one product with
  D per step. Every few steps an instance whose free set has settled
  takes a face step instead: a Newton solve on the free coordinates and a
  projected search along its direction, which steps to the minimizer on
  that face when it lies in the box. Its core, ``_pgd_batched``,
  sees D only through a matvec and a gather of principal blocks, so the
  batched ``pgd`` of ``loss.batch_loss`` runs every anchor of a batch
  through one operator on the shared K + beta I
  (``loss._dual_operator``), and ``solve_pgd``, on one dense D, is its
  per-anchor reference.
* ``solve_inv``    -- truncated least squares: clip(2 D^{-1} 1, 0, C),
  computed with a Cholesky solve, so D must be positive definite. It is
  the per-anchor reference for the batched ``inv`` of ``loss.batch_loss``,
  which takes every anchor of a batch from one factorization and rejects
  the same anchors.

The objectives satisfy g(2 D^{-1} 1) <= g(oracle) <= min(g(pgd), g(inv)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .kernels import KernelSpec, gram


class SingularInstanceError(RuntimeError):
    """The instance's D matrix is not positive definite (or is numerically
    singular), so the inv solve clip(2 D^{-1} 1, 0, C) is not defined."""


def _check_C_beta(C: float, beta: float) -> None:
    """Every path that builds a dual needs C > 0 (inf allowed) and beta >= 0."""
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")


@dataclass
class SvmInstance:
    """One reduced dual problem.

    ``delta`` already includes the beta * I regularization. ``C`` may be
    ``math.inf`` for the unbounded (no upper box) variant.
    """

    k_xY: np.ndarray
    K_YY: np.ndarray
    k_xx: float
    delta: np.ndarray
    C: float
    beta: float

    @property
    def n(self) -> int:
        return self.delta.shape[0]

    def __post_init__(self):
        _check_C_beta(self.C, self.beta)

    def describe(self) -> str:
        return f"SvmInstance(n={self.n}, C={self.C}, beta={self.beta})"


@dataclass
class DualSolution:
    alpha: np.ndarray
    objective: float
    iterations: int
    solver: str
    converged: bool
    # per-iteration objective values, populated only when requested
    trace: list = field(default=None, repr=False)

    @property
    def alpha_x(self) -> float:
        """The eliminated positive dual variable, alpha.1."""
        return float(np.sum(self.alpha))


@dataclass
class SolverConfig:
    """Projected-gradient settings.

    ``step_size`` is a positive float or the string ``"auto"``, meaning
    1 / ||D||_2 with the spectral norm estimated by power iteration.
    ``max_iters`` caps the steps, face steps included, and ``tol`` the
    projected-gradient norm at which an instance counts as converged; an
    instance whose projected gradient is not finite stops at once,
    unconverged, with NaN alphas.
    ``seed`` drives the random initial point alpha_0 ~ U[0, min(C, 1)]^n.
    """

    step_size: float | str = "auto"
    max_iters: int = 1000
    tol: float = 1e-8
    nesterov: bool = True
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.step_size, str):
            if self.step_size != "auto":
                raise ValueError(f"step_size must be positive or 'auto', got {self.step_size!r}")
        elif not self.step_size > 0:
            raise ValueError(f"step_size must be positive or 'auto', got {self.step_size}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def assemble_delta(k_xx: float, k_xY: np.ndarray, K_YY: np.ndarray, beta: float) -> np.ndarray:
    """D = k_xx 11' + K_YY - k_xY 1' - 1 k_xY' + beta I."""
    k_xY = np.asarray(k_xY, dtype=np.float64)
    K_YY = np.asarray(K_YY, dtype=np.float64)
    n = k_xY.shape[0]
    if K_YY.shape != (n, n):
        raise ValueError(f"K_YY shape {K_YY.shape} does not match k_xY length {n}")
    delta = k_xx + K_YY - k_xY[:, None] - k_xY[None, :]
    delta[np.diag_indices(n)] += beta
    return delta


def build_instance(spec: KernelSpec, z_pos, Z_neg, C: float, beta: float) -> SvmInstance:
    """Build the reduced dual instance from embeddings and a kernel.

    ``z_pos`` is a d-vector, ``Z_neg`` a d x n matrix of negative columns.
    """
    z_pos = np.asarray(z_pos, dtype=np.float64)
    Z_neg = np.asarray(Z_neg, dtype=np.float64)
    if Z_neg.ndim != 2 or Z_neg.shape[1] < 1:
        raise ValueError(f"Z_neg must be d x n with n >= 1, got shape {Z_neg.shape}")
    if z_pos.shape[0] != Z_neg.shape[0]:
        raise ValueError(f"dimension mismatch: z_pos has {z_pos.shape[0]} rows, Z_neg has {Z_neg.shape[0]}")
    k_xx = float(gram(spec, z_pos[:, None], z_pos[:, None])[0, 0])
    k_xY = gram(spec, z_pos[:, None], Z_neg)[0]
    K_YY = gram(spec, Z_neg, Z_neg)
    delta = assemble_delta(k_xx, k_xY, K_YY, beta)
    return SvmInstance(k_xY=k_xY, K_YY=K_YY, k_xx=k_xx, delta=delta, C=C, beta=beta)


def dual_objective(delta, alpha) -> float:
    """g(alpha) = 1/2 alpha' D alpha - 2 alpha'1."""
    delta = np.asarray(delta, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1] or alpha.shape != (delta.shape[0],):
        raise ValueError(f"shape mismatch: delta {delta.shape}, alpha {alpha.shape}")
    return float(0.5 * alpha @ (delta @ alpha) - 2.0 * np.sum(alpha))


def _power_iteration(matvec, start: np.ndarray, iters: int = 50) -> np.ndarray:
    """||D||_2 of each operator of a batch, estimated as ||D v|| after
    ``iters`` steps of power iteration. Power iteration converges to an
    eigenvector of largest magnitude, so this is max |eigenvalue| also
    when D is indefinite. Row i of ``start`` is operator i's unit start
    vector; ``matvec`` is as in ``_pgd_batched``."""
    v = start
    for _ in range(iters):
        w = matvec(v)
        nrm = np.linalg.norm(w, axis=1, keepdims=True)
        v = w / np.maximum(nrm, 1e-300)
    return np.maximum(np.linalg.norm(matvec(v), axis=1), 1e-300)


def _dense_operator(delta: np.ndarray):
    """``_pgd_batched`` operator and face gather of one dense D, for a
    batch of one."""
    return (lambda alpha: (delta @ alpha.T).T,
            lambda rows, cols: delta[cols[:, :, None], cols[:, None, :]])


def spectral_norm(delta, iters: int = 50) -> float:
    """||D||_2 of one (n, n) matrix, estimated by power iteration from the
    deterministic start 1/sqrt(n)."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise ValueError(f"delta must be square, got shape {delta.shape}")
    n = delta.shape[0]
    matvec, _ = _dense_operator(delta)
    return float(_power_iteration(matvec, np.full((1, n), 1.0 / math.sqrt(n)), iters)[0])


def _draw_alpha0(n: int, C: float, seed) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, min(C, 1.0), size=n)


def _obj_from_q(alphas: np.ndarray, q: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(alphas * q, axis=-1) - np.sum(b * alphas, axis=-1)


# Steps between face steps of ``_pgd_batched``, chosen by measurement on
# recorded training batches (see CHANGES.md)
_FACE_EVERY = 4

# The step lengths t that a face step's projected search tries, longest
# first, and its sufficient-decrease factor
_SEARCH_STEPS = 0.5 ** np.arange(10)
_SUFFICIENT_DECREASE = 1e-4


def _face_of(alpha: np.ndarray, C: float) -> np.ndarray:
    """Each coordinate's face: 0 at the lower bound, 1 free, 2 at C."""
    return (alpha > 0.0).astype(np.int8) + (alpha >= C)


def _project(x: np.ndarray, C: float) -> np.ndarray:
    """x projected onto the box [0, C], in place."""
    np.maximum(x, 0.0, out=x)
    return np.minimum(x, C, out=x)


def _face_steps(gather, alpha: np.ndarray, g: np.ndarray, rows: np.ndarray, C: float):
    """Projected searches along the Newton directions of the instances
    ``rows`` on their free faces.

    For instance i of ``rows``, with free set F = {0 < alpha_i < C} (not
    empty) and gradient g_i at alpha_i, d_F solves D_FF d_F = -g_F and d is
    0 off F. The step of length t is s(t) = P(alpha_F + t d_F) - alpha_F,
    P the projection onto [0, C], and it changes the objective by exactly
    g_F's + 1/2 s'D_FF s, evaluated on the block the solve gathered. A row
    takes the first t of ``_SEARCH_STEPS`` whose change is at most
    ``_SUFFICIENT_DECREASE`` times g_F's < 0: the projected search of More
    & Toraldo 1991 along the direction of Bertsekas 1982's projected
    Newton. When alpha + d lies in the box, t = 1 passes and the row steps
    to the minimizer on its face, a descent of exactly -1/2 g'd. A row
    refuses only when no t passes, as when d ascends toward a saddle of an
    indefinite D, or when its block is singular.

    Faces are padded to a common size with identity blocks and zero
    right-hand sides and solved in chunks of similar size whose
    (rows, f, f) blocks hold at most n^2 doubles, one dense D; a chunk whose
    stacked solve fails is solved row by row. Returns the accepting rows and
    their new points.
    """
    n = alpha.shape[1]
    new, accept = alpha[rows], np.zeros(rows.size, dtype=bool)
    free = (new > 0.0) & (new < C)
    sizes = np.add.reduce(free, axis=1)
    order = np.argsort(~free, axis=1, kind="stable")  # each row's free coordinates first
    by_size = np.argsort(-sizes, kind="stable")
    start = 0
    while start < rows.size:
        f = int(sizes[by_size[start]])
        chunk = by_size[start:start + max(1, n * n // (f * f))]
        start += chunk.size
        cols = order[chunk, :f]
        pad = np.arange(f) >= sizes[chunk][:, None]
        blocks = gather(rows[chunk], cols)
        np.copyto(blocks, np.eye(f), where=pad[:, :, None] | pad[:, None, :])
        g_F = np.where(pad, 0.0, g[rows[chunk, None], cols])
        try:
            d_F = np.linalg.solve(blocks, -g_F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            d_F = np.full(g_F.shape, np.nan)
            for r in range(chunk.size):
                try:
                    d_F[r] = np.linalg.solve(blocks[r], -g_F[r])
                except np.linalg.LinAlgError:
                    pass
        # (rows, steps, f): every trial point and step, padding steps 0
        a_F = new[chunk[:, None], cols][:, None, :]
        points = _project(a_F + _SEARCH_STEPS[:, None] * d_F[:, None, :], C)
        s = points - a_F
        gs = np.einsum("rtf,rf->rt", s, g_F)
        change = gs + 0.5 * np.einsum("rtf,rtf->rt", s, s @ blocks)
        passes = (change <= _SUFFICIENT_DECREASE * gs) & (gs < 0.0)
        accept[chunk] = passes.any(axis=1)
        new[chunk[:, None], cols] = points[np.arange(chunk.size), passes.argmax(axis=1)]
    return rows[accept], new[accept]


def _pgd_batched(matvec, gather, b: np.ndarray, C: float, eta: np.ndarray, alpha0: np.ndarray,
                 max_iters: int, tol: float, nesterov: bool,
                 record: bool = False):
    """Projected gradient on a batch of instances g_i(a) = 1/2 a' D_i a - b_i' a
    over the box [0, C], with face steps and one operator product per step.

    ``alpha0`` and the linear terms ``b`` are (B, n) and ``eta`` is (B,).
    ``matvec(X)`` returns the rows D_i x_i of X's B rows, and
    ``gather(rows, cols)`` the (r, f, f) blocks D_i[c, c] of the instances
    i = rows[j] at the coordinates c = cols[j]. A coordinate that the
    operator keeps at 0 and whose b and start are 0 stays 0, so instances
    of fewer than n variables share one layout.

    The loop carries q = D alpha and q_prev = D prev, so the gradient at
    the extrapolated point y = alpha + m (alpha - prev) is
    q + m (q - q_prev) - b by linearity, and the only product of a step
    is D cand of the new iterate. With ``nesterov`` the momentum m follows
    FISTA's t sequence and restarts (t = 1) when the step opposes the
    momentum, (y - cand)'(cand - alpha) > 0 (the gradient scheme of
    O'Donoghue & Candes 2015, "Adaptive restart for accelerated gradient
    schemes"); the step is still taken. Without it m = 0 and this is
    plain projected gradient.

    Every ``_FACE_EVERY``-th step, an instance whose face (the coordinates
    at 0, the free set F = {0 < alpha < C}, those at C) is that of the
    previous iterate takes, in place of the projected-gradient candidate,
    the projected search along the Newton direction on that face when it
    descends (``_face_steps``: Bertsekas 1982's projected Newton direction,
    searched as in More & Toraldo 1991's GPCG), and restarts its momentum.
    The search starts from alpha, so an instance may take several face
    steps on one face. The candidate still goes through the step's one
    product, so a face step is a step.

    Convergence is per instance: before each step, and once after the
    last, an instance whose projected-gradient norm pg at alpha has
    ||pg||^2 <= tol^2 freezes, so ``converged`` describes the returned
    alpha. An instance whose ||pg||^2 is not finite (NaN, or past the
    float range) freezes as well, unconverged, and returns NaN alphas.
    Objectives are computed only for ``record``. Returns (alpha,
    iterations, converged, traces) with per-instance step counts and, for
    ``record``, each instance's objective before its first step and after
    every step.
    """
    B, n = alpha0.shape
    alpha = _project(np.array(alpha0, dtype=np.float64), C)
    q = matvec(alpha)
    prev, q_prev = alpha, q
    t_mom = np.ones(B)
    eta_col = eta[:, None]
    tol2 = tol * tol
    active = np.ones(B, dtype=bool)
    failed = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)
    traces = [[o] for o in _obj_from_q(alpha, q, b)] if record else None

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iters + 1):
            g = q - b
            # pg = (alpha - P(alpha - eta g)) / eta, built in place
            pg = _project(alpha - eta_col * g, C)
            np.subtract(alpha, pg, out=pg)
            pg /= eta_col
            pg2 = np.einsum("ij,ij->i", pg, pg)
            failed |= ~np.isfinite(pg2)
            active &= (pg2 > tol2) & ~failed
            if k == max_iters or not active.any():
                break
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom)) if nesterov else t_mom
            momentum = ((t_mom - 1.0) / t_next)[:, None]
            # y = alpha + m (alpha - prev) and cand = P(y - eta (g + m (q - q_prev))),
            # built in place; y then holds y - cand for the restart test
            y = alpha - prev
            y *= momentum
            y += alpha
            cand = q - q_prev
            cand *= momentum
            cand += g
            cand *= eta_col
            _project(np.subtract(y, cand, out=cand), C)
            y -= cand
            restart = np.einsum("ij,ij->i", y, cand - alpha) > 0.0
            if (k + 1) % _FACE_EVERY == 0:
                face = _face_of(alpha, C)
                settled = active & np.any(face == 1, axis=1) & np.all(face == _face_of(prev, C), axis=1)
                rows, points = _face_steps(gather, alpha, g, np.nonzero(settled)[0], C)
                cand[rows] = points
                restart[rows] = True
            q_cand = matvec(cand)
            t_mom = np.where(restart, 1.0, t_next)
            prev, q_prev = alpha, q
            # a frozen instance never steps again, so only alpha and q need the mask
            if active.all():
                alpha, q = cand, q_cand
            else:
                step = active[:, None]
                alpha, q = np.where(step, cand, alpha), np.where(step, q_cand, q)
            iterations += active
            if record:
                obj = _obj_from_q(alpha, q, b)
                for i in np.nonzero(active)[0]:
                    traces[i].append(obj[i])

    alpha[failed] = np.nan
    return alpha, iterations, ~active & ~failed, traces


def resolve_step_sizes(matvec, b: np.ndarray, step_size) -> np.ndarray:
    """Each instance's PGD step: ``step_size``, or for "auto" 1 / ||D_i||_2
    by power iteration from b_i normalized, which is 1/sqrt(n_i) on the
    instance's own coordinates."""
    if step_size == "auto":
        return 1.0 / _power_iteration(matvec, b / np.linalg.norm(b, axis=1, keepdims=True))
    return np.full(b.shape[0], float(step_size))


def solve_pgd(inst: SvmInstance, cfg: SolverConfig, alpha0=None,
              record_trace: bool = False) -> DualSolution:
    """Run (optionally Nesterov-accelerated) projected gradient, with face
    steps, on one instance: ``_pgd_batched`` on a batch of one dense D.

    ``alpha0`` overrides the seeded random initial point; it is projected
    onto the box before the first step. With max_iters = 0 the projected
    initial point is returned, converged only if it is already stationary.
    """
    matvec, gather = _dense_operator(inst.delta)
    b = np.full((1, inst.n), 2.0)
    if alpha0 is None:
        alpha0 = _draw_alpha0(inst.n, inst.C, cfg.seed)
    a0 = np.asarray(alpha0, dtype=np.float64)[None]
    eta = resolve_step_sizes(matvec, b, cfg.step_size)
    alpha, iters, converged, traces = _pgd_batched(
        matvec, gather, b, inst.C, eta, a0, cfg.max_iters, cfg.tol, cfg.nesterov, record=record_trace)
    return DualSolution(
        alpha=alpha[0],
        objective=dual_objective(inst.delta, alpha[0]),
        iterations=int(iters[0]),
        solver="pgd",
        converged=bool(converged[0]),
        trace=traces[0] if record_trace else None,
    )


def solve_inv(inst: SvmInstance) -> DualSolution:
    """Truncated least squares: clip(2 D^{-1} 1, 0, C) via a Cholesky solve."""
    try:
        c, low = cho_factor(inst.delta, check_finite=False)
        unconstrained = 2.0 * cho_solve((c, low), np.ones(inst.n), check_finite=False)
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise SingularInstanceError(
            f"cannot factorize delta of {inst.describe()}: {exc}") from exc
    alpha = np.clip(unconstrained, 0.0, inst.C)
    return DualSolution(
        alpha=alpha,
        objective=dual_objective(inst.delta, alpha),
        iterations=1,
        solver="inv",
        converged=True,
    )


def solve_oracle(inst: SvmInstance, tol: float = 1e-10, max_sweeps: int = 100000) -> DualSolution:
    """Cyclic exact coordinate minimization, swept until the largest
    per-sweep coordinate change is <= tol.

    Intended as the reference optimum for tests and diagnostics, not for
    the training loop. Requires all diagonal entries of D to be positive.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    delta = inst.delta
    n = inst.n
    diag = np.diag(delta).copy()
    if np.any(diag <= 0):
        bad = int(np.argmax(diag <= 0))
        raise ValueError(
            f"coordinate minimization needs positive diagonal; delta[{bad},{bad}]={diag[bad]} in {inst.describe()}")
    alpha = np.zeros(n)
    q = np.zeros(n)  # running D @ alpha
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        max_change = 0.0
        for i in range(n):
            a_old = alpha[i]
            a_new = (2.0 - (q[i] - diag[i] * a_old)) / diag[i]
            if a_new < 0.0:
                a_new = 0.0
            elif a_new > inst.C:
                a_new = inst.C
            d = a_new - a_old
            if d != 0.0:
                alpha[i] = a_new
                q += delta[:, i] * d
                max_change = max(max_change, abs(d))
        if max_change <= tol:
            converged = True
            break
    return DualSolution(
        alpha=alpha,
        objective=dual_objective(delta, alpha),
        iterations=sweeps,
        solver="oracle",
        converged=converged,
    )


def classify_support(alpha: np.ndarray, C: float, tol: float = 1e-9) -> np.ndarray:
    """Label each coordinate: 0 = non-support (alpha = 0), 1 = support
    (0 < alpha < C), 2 = margin violator (alpha = C)."""
    alpha = np.asarray(alpha)
    labels = np.ones(alpha.shape, dtype=np.int64)
    labels[alpha <= tol] = 0
    if math.isfinite(C):
        labels[np.abs(alpha - C) <= tol] = 2
    return labels
