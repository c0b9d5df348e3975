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
  accelerated with restart on objective increase.
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


def spectral_norm(delta, iters: int = 50) -> np.ndarray | float:
    """||D||_2 estimated by power iteration from the deterministic start 1/sqrt(n).

    Accepts a single (n, n) matrix or a stacked (B, n, n) batch; returns a
    scalar or a (B,) array accordingly.
    """
    delta = np.asarray(delta, dtype=np.float64)
    single = delta.ndim == 2
    D = delta[None] if single else delta
    n = D.shape[-1]
    v = np.full(D.shape[:-2] + (n,), 1.0 / math.sqrt(n))
    for _ in range(iters):
        w = np.einsum("...ij,...j->...i", D, v)
        nrm = np.linalg.norm(w, axis=-1, keepdims=True)
        v = w / np.maximum(nrm, 1e-300)
    lam = np.einsum("...i,...i->...", v, np.einsum("...ij,...j->...i", D, v))
    lam = np.maximum(lam, 1e-300)
    return float(lam[0]) if single else lam


def _draw_alpha0(n: int, C: float, seed, size=None) -> np.ndarray:
    hi = min(C, 1.0)
    rng = np.random.default_rng(seed)
    shape = (n,) if size is None else (size, n)
    return rng.uniform(0.0, hi, size=shape)


def _matvec(deltas: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    return (deltas @ alphas[..., None])[..., 0]


def _obj_from_q(alphas: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(alphas * q, axis=-1) - 2.0 * np.sum(alphas, axis=-1)


def _pgd_batched(deltas: np.ndarray, C: float, eta: np.ndarray, alpha0: np.ndarray,
                 max_iters: int, tol: float, nesterov: bool,
                 record: bool = False):
    """Projected gradient on a stack of instances sharing C.

    ``deltas`` is (B, n, n), ``alpha0`` is (B, n), ``eta`` is (B,).
    Convergence is per instance: an instance freezes once its
    projected-gradient norm is <= tol. Returns (alpha, iterations,
    converged, traces) with per-instance step counts.
    """
    B, n = alpha0.shape
    alpha = np.clip(alpha0, 0.0, C)
    prev = alpha.copy()
    t_mom = np.ones(B)
    eta_col = eta[:, None]
    active = np.ones(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)
    obj = _obj_from_q(alpha, _matvec(deltas, alpha)) if (nesterov or record) else None
    traces = [[o] for o in obj] if record else None

    for k in range(max_iters):
        if not active.any():
            break
        if not nesterov:
            # one matvec per step: the projected step from alpha doubles as
            # the stationarity measure at alpha, so converged instances
            # freeze before moving
            q = _matvec(deltas, alpha)
            cand = np.clip(alpha - eta_col * (q - 2.0), 0.0, C)
            pg_norm = np.linalg.norm((alpha - cand) / eta_col, axis=1)
            stepping = active & (pg_norm > tol)
            active = stepping
            if not stepping.any():
                break
            alpha = np.where(stepping[:, None], cand, alpha)
            iterations[stepping] = k + 1
            if record:
                obj = np.where(stepping, _obj_from_q(alpha, _matvec(deltas, alpha)), obj)
                for b in np.nonzero(stepping)[0]:
                    traces[b].append(obj[b])
            continue

        # Nesterov extrapolation with restart on objective increase
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
        momentum = ((t_mom - 1.0) / t_next)[:, None]
        y = alpha + momentum * (alpha - prev)
        grad_y = _matvec(deltas, y) - 2.0
        cand = np.clip(y - eta_col * grad_y, 0.0, C)
        q_cand = _matvec(deltas, cand)
        cand_obj = _obj_from_q(cand, q_cand)
        worse = active & (cand_obj > obj)
        if worse.any():
            q_a = _matvec(deltas[worse], alpha[worse])
            cand[worse] = np.clip(alpha[worse] - eta_col[worse] * (q_a - 2.0), 0.0, C)
            q_cand[worse] = _matvec(deltas[worse], cand[worse])
            cand_obj[worse] = _obj_from_q(cand[worse], q_cand[worse])
            t_next = np.where(worse, 1.0, t_next)
        t_mom = np.where(active, t_next, t_mom)
        prev = np.where(active[:, None], alpha, prev)
        alpha = np.where(active[:, None], cand, alpha)
        obj = np.where(active, cand_obj, obj)
        iterations[active] = k + 1
        if record:
            for b in np.nonzero(active)[0]:
                traces[b].append(obj[b])
        # stationarity at the new iterate, reusing q_cand = D @ cand
        pg = (cand - np.clip(cand - eta_col * (q_cand - 2.0), 0.0, C)) / eta_col
        active &= np.linalg.norm(pg, axis=1) > tol

    converged = ~active
    return alpha, iterations, converged, traces


def resolve_step_sizes(deltas: np.ndarray, step_size) -> np.ndarray:
    if step_size == "auto":
        return 1.0 / np.atleast_1d(spectral_norm(deltas))
    return np.full(deltas.shape[0], float(step_size))


def solve_pgd(inst: SvmInstance, cfg: SolverConfig, alpha0=None,
              record_trace: bool = False) -> DualSolution:
    """Run (optionally Nesterov-accelerated) projected gradient on one instance.

    ``alpha0`` overrides the seeded random initial point; it is projected
    onto the box before the first step. With max_iters = 0 the projected
    initial point is returned unconverged.
    """
    deltas = inst.delta[None]
    if alpha0 is None:
        alpha0 = _draw_alpha0(inst.n, inst.C, cfg.seed)
    a0 = np.asarray(alpha0, dtype=np.float64)[None]
    eta = resolve_step_sizes(deltas, cfg.step_size)
    alpha, iters, converged, traces = _pgd_batched(
        deltas, inst.C, eta, a0, cfg.max_iters, cfg.tol, cfg.nesterov, record=record_trace)
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
