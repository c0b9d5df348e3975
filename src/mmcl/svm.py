"""Reduced SVM dual: instance construction and three box-constrained QP solvers.

For a single positive embedding z+ and negatives Z-, eliminating the
positive's dual variable (alpha_x = alpha.1) reduces the soft-margin SVM
dual to

    minimize_{0 <= alpha <= C}  g(alpha) = 1/2 alpha' D alpha - 2 alpha'1

where D = k_xx 11' + K_YY - k_xY 1' - 1 k_xY' + beta I. The base matrix
(beta = 0) is the Gram matrix of the RKHS difference vectors
phi(z+) - phi(z_i-), hence PSD for a PSD kernel; beta > 0 makes it
positive definite. The indefinite tanh kernel can leave D indefinite:
every solver here, as both batched methods of ``loss.batch_loss``, then
raises ``SingularInstanceError``.

Three solvers are provided:

* ``solve_oracle`` -- cyclic exact coordinate minimization, run to a
  stationarity tolerance. Slowest, used as the reference optimum.
* ``solve_pgd``    -- m-step projected gradient, optionally Nesterov
  accelerated with gradient-based adaptive restart, at one product with
  D per step. From the first step on, an instance takes a face step
  while its binding free set (the free coordinates and those at a bound
  whose gradient points into the box) is small enough for a cheap solve:
  a Newton solve on that set and a projected search along its direction,
  which tries the full step first and steps to the minimizer on that
  face when it lies in the box (Bertsekas 1982's projected Newton).
  Otherwise, and where the search refuses, it takes a projected-gradient
  step. Its core, ``_pgd_batched``, sees D only through a matvec and a
  gather of principal blocks, so the batched ``pgd`` of ``loss.batch_loss``
  runs every anchor of a batch through one operator on the shared K + beta I
  (``loss._dual_operator``), and ``solve_pgd``, on one dense D, is its
  per-anchor reference. Both start every instance at its ``inv``
  solution, and ``_pgd_batched`` alone reads the ``SolverConfig``. An
  "auto" step is 1 / ||D||_2 for ``solve_pgd`` and a closed-form bound
  (``loss.resolve_step_sizes``) for the batched ``pgd``, computed only
  once a projected-gradient step needs it.
* ``solve_inv``    -- truncated least squares: clip(2 D^{-1} 1, 0, C),
  computed from the Cholesky factor that decides the precondition. It is
  the per-anchor reference for the batched ``inv`` of ``loss.batch_loss``,
  which takes every anchor of a batch from one factorization.

The objectives satisfy g(2 D^{-1} 1) <= g(oracle) <= min(g(pgd), g(inv)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram


class SingularInstanceError(RuntimeError):
    """A dual matrix D is not positive definite (or is numerically
    singular), so no solver accepts its dual."""


def _check_C_beta(C: float, beta: float) -> None:
    """Every path that builds a dual needs C > 0 (inf allowed) and a finite
    beta >= 0."""
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be nonnegative and finite, got {beta}")


@dataclass
class SvmInstance:
    """One reduced dual problem.

    ``delta`` already includes the beta * I regularization. ``C`` may be
    ``math.inf`` for the unbounded (no upper box) variant.
    """

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

    @property
    def alpha_x(self) -> float:
        """The eliminated positive dual variable, alpha.1."""
        return float(np.sum(self.alpha))


@dataclass
class SolverConfig:
    """Projected-gradient settings.

    ``step_size`` is a positive float or the string ``"auto"``: for one
    dense D (``solve_pgd``) 1 / ||D||_2, its largest eigenvalue, and in
    the batched ``pgd`` of ``loss.batch_loss`` the reciprocal of a
    closed-form upper bound on each anchor's ||D_k||_2
    (``loss.resolve_step_sizes``), so no step is longer than 1 / ||D||_2.
    Only projected-gradient steps use it, and "auto" is computed only if
    one is taken: a run of face steps alone never computes it.
    ``max_iters`` caps the steps, face steps included, and ``tol`` the
    norm of the projected gradient alpha - P(alpha - g), P the projection
    onto the box, at which an instance counts as converged; it takes a
    unit step whatever ``step_size`` is. An instance whose projected
    gradient is not finite stops at once, unconverged, with NaN alphas.
    ``seed`` is read by nothing in ``mmcl``: every PGD run starts at the
    ``inv`` solution. It stays a field only because the benchmark harness
    (``perfbench``) constructs ``SolverConfig(..., seed=...)``.
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
        elif not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite or 'auto', got {self.step_size}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


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
    return SvmInstance(delta=delta, C=C, beta=beta)


def _cholesky(inst: SvmInstance):
    """The Cholesky factor of D, the verdict of every per-anchor solver:
    raises ``SingularInstanceError`` when D is not positive definite. A
    non-finite D is not judged, and its factor is NaN."""
    # imported here, so that ``import mmcl`` and InfoNCE training, which
    # factor nothing, do not load scipy.linalg
    from scipy.linalg import LinAlgError, cho_factor

    if not np.all(np.isfinite(inst.delta)):
        return np.full(inst.delta.shape, np.nan), False
    try:
        return cho_factor(inst.delta, check_finite=False)
    except LinAlgError as exc:
        raise SingularInstanceError(
            f"D of {inst.describe()} is not positive definite: {exc}") from exc


def dual_objective(delta, alpha) -> float:
    """g(alpha) = 1/2 alpha' D alpha - 2 alpha'1."""
    delta = np.asarray(delta, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1] or alpha.shape != (delta.shape[0],):
        raise ValueError(f"shape mismatch: delta {delta.shape}, alpha {alpha.shape}")
    return float(0.5 * alpha @ (delta @ alpha) - 2.0 * np.sum(alpha))


def _dense_operator(delta: np.ndarray):
    """``_pgd_batched`` operator and face gather of one dense D, for a
    batch of one."""
    return (lambda alpha: (delta @ alpha.T).T,
            lambda rows, cols: delta[cols[:, :, None], cols[:, None, :]])


# A face step first tries the full step t = 1, which passes for 71 683 of
# the 71 718 face steps on 600 recorded training batches; a row that fails
# it searches these shorter steps, longest first. The sufficient-decrease
# factor is that of both tries
_SEARCH_STEPS = 0.5 ** np.arange(1, 10)
_SUFFICIENT_DECREASE = 1e-4

# Face sizes are padded to a multiple of this, which of 4 to 12 gives the
# fewest stacked solves on recorded training batches
_PAD_TO = 8

# A face step's stacked blocks may hold max(n^2, this) doubles (256 KiB), so
# that at small n one solve takes every face of one padded size
_CHUNK_FLOOR = 2 ** 15

# An instance takes a face step on its binding free set F exactly when
# |F|^2 <= max(_BINDING_GUARD * n, _BINDING_FLOOR^2) (see ``_pgd_batched``).
# Of 8, 12, 16 and 24, a _BINDING_GUARD of 12 balances recorded training
# batches, where 16 and 24 are up to 8 % faster and 8 is 21 % slower,
# against C = 0.05, where 16 and 24 are up to 48 % slower. The floor binds
# below n = 192. The inv start leaves binding sets of 34 to 41
# coordinates at n = 62, and none above 46 on 600 recorded training
# batches: with the floor they take face steps from the first step on,
# which halves the loop's steps on recorded late-training batches, and no
# projected-gradient step is left to need a step size. Face steps on
# binding sets of any size made n = 510 2.7 times slower; the floor costs
# n = 126 at C = 0.05 about a fifth of its time (see CHANGES.md)
_BINDING_GUARD = 12
_BINDING_FLOOR = 48


def _binding_free(alpha: np.ndarray, g: np.ndarray, C: float) -> np.ndarray:
    """The binding free set at alpha with gradient g: the free coordinates
    and those at a bound that the sign of their gradient moves off it."""
    return ((alpha > 0.0) & (alpha < C)) | ((alpha == 0.0) & (g < 0.0)) | ((alpha == C) & (g > 0.0))


def _project(x: np.ndarray, C: float) -> np.ndarray:
    """x projected onto the box [0, C], in place."""
    np.maximum(x, 0.0, out=x)
    return np.minimum(x, C, out=x)


def _passes(s: np.ndarray, g_F: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(rows, steps) mask of the trial steps s (rows, steps, f) on the
    faces of gradient g_F (rows, f) and blocks D_FF (rows, f, f) that
    descend by at least ``_SUFFICIENT_DECREASE`` times g_F's < 0. A step
    changes the objective by exactly g_F's + 1/2 s'D_FF s."""
    gs = np.einsum("rtf,rf->rt", s, g_F)
    change = gs + 0.5 * np.einsum("rtf,rtf->rt", s, s @ blocks)
    return (change <= _SUFFICIENT_DECREASE * gs) & (gs < 0.0)


def _face_steps(gather, alpha: np.ndarray, g: np.ndarray, rows: np.ndarray, free: np.ndarray,
                C: float):
    """Projected searches along the Newton directions of the instances
    ``rows`` on the coordinates ``free`` leaves free.

    For instance i of ``rows``, with free set F given by row i of the
    (B, n) mask ``free`` (not empty; its binding free set
    ``_binding_free``, the free coordinates and those that the sign of
    their gradient moves off a bound) and gradient g_i at alpha_i, d_F
    solves D_FF d_F = -g_F and d is 0 off F. The step of length t is
    s(t) = P(alpha_F + t d_F) - alpha_F, P the projection onto [0, C],
    and it changes the objective by exactly g_F's + 1/2 s'D_FF s,
    evaluated on the block the solve gathered. A row takes the full step
    t = 1 when its change is at most ``_SUFFICIENT_DECREASE`` times
    g_F's < 0, and otherwise the first t of ``_SEARCH_STEPS`` that passes
    the same test: the projected search of More & Toraldo 1991 along the
    direction of Bertsekas 1982's projected Newton. When alpha + d lies in
    the box, t = 1 passes and the row steps to the minimizer on its face,
    a descent of exactly -1/2 g'd. A row refuses when no t passes: the
    projected direction need not descend, even on a positive definite D.
    Every block D_FF of a positive definite D is positive definite, and
    so is its identity-padded block, so every solve succeeds.

    Each face is padded with an identity block and zero right-hand side
    to the multiple of ``_PAD_TO`` at or above its size (at most n). The
    rounding of a solve depends on the padded size, so a row's solve and
    search then do not depend on the rows it shares them with. Faces of
    one padded size f are solved in chunks whose (rows, f, f) blocks hold
    at most max(n^2, ``_CHUNK_FLOOR``) doubles: one dense D, or at small n
    a floor that puts every face of one padded size in one stacked solve.
    Returns the accepting rows and their new points.
    """
    n = alpha.shape[1]
    new, accept = alpha[rows], np.zeros(rows.size, dtype=bool)
    free = free[rows]
    chunk_doubles = max(n * n, _CHUNK_FLOOR)
    sizes = np.add.reduce(free, axis=1)
    padded = np.minimum(-(-sizes // _PAD_TO) * _PAD_TO, n)
    order = np.argsort(~free, axis=1, kind="stable")  # each row's free coordinates first
    by_size = np.argsort(-padded, kind="stable")
    sorted_sizes = padded[by_size].tolist()
    start = 0
    while start < rows.size:
        f = sorted_sizes[start]
        end = start + min(sorted_sizes[start:].count(f), max(1, chunk_doubles // (f * f)))
        chunk = by_size[start:end]
        start = end
        cols = order[chunk, :f]
        pad = np.arange(f) >= sizes[chunk][:, None]
        blocks = gather(rows[chunk], cols)
        # padding rows and columns are 0 off the diagonal and 1 on it
        pad_row, pad_col = np.nonzero(pad)
        blocks[pad_row, pad_col, :] = 0.0
        blocks[pad_row, :, pad_col] = 0.0
        blocks[pad_row, pad_col, pad_col] = 1.0
        g_F = g[rows[chunk, None], cols]
        g_F[pad] = 0.0
        d_F = np.linalg.solve(blocks, -g_F[..., None])[..., 0]
        # padding steps are 0: d_F is 0 there and alpha in the box
        a_F = new[chunk[:, None], cols]
        points = _project(a_F + d_F, C)
        passes = _passes((points - a_F)[:, None], g_F, blocks)[:, 0]
        retry = np.nonzero(~passes)[0]
        if retry.size:
            # (rows, steps, f): every shorter trial point of the rows the full step fails
            a_R = a_F[retry, None]
            trials = _project(a_R + _SEARCH_STEPS[:, None] * d_F[retry, None], C)
            shorter = _passes(trials - a_R, g_F[retry], blocks[retry])
            passes[retry] = shorter.any(axis=1)
            points[retry] = trials[np.arange(retry.size), shorter.argmax(axis=1)]
        accept[chunk] = passes
        new[chunk[:, None], cols] = points
    return rows[accept], new[accept]


def _pgd_batched(matvec, gather, b: np.ndarray, C: float, auto_steps, alpha0: np.ndarray,
                 solver: SolverConfig):
    """Projected gradient on a batch of instances g_i(a) = 1/2 a' D_i a - b_i' a
    over the box [0, C], with face steps and one operator product per step,
    under the settings of ``solver``.

    ``alpha0`` and the linear terms ``b`` are (B, n). The projected-gradient
    steps eta are ``solver.step_size``, or for "auto" the (B,) steps that
    ``auto_steps()`` returns; it is called at most
    once, on the first step where an active instance takes a
    projected-gradient step, so a run of face steps alone never computes
    it. ``matvec(X)`` returns the rows D_i x_i of X's B rows, and
    ``gather(rows, cols)`` the (r, f, f) blocks D_i[c, c] of the instances
    i = rows[j] at the coordinates c = cols[j]. A coordinate that the
    operator keeps at 0 and whose b and start are 0 stays 0, so instances
    of fewer than n variables share one layout.

    Each step, an instance first tries a face step: the projected search
    along the Newton direction on its binding free set
    F = {0 < alpha < C} u {alpha = 0, g < 0} u {alpha = C, g > 0}
    (``_binding_free``, ``_face_steps``: Bertsekas 1982's projected Newton
    step, searched as in More & Toraldo 1991's GPCG), the coordinates that
    no bound holds by the sign of their gradient, so a step can free a
    coordinate as well as bind one, and the optimal face is found in a few
    steps. F is not empty while an instance is active. It solves on its F
    from the first step on exactly when |F|^2 <= max(``_BINDING_GUARD`` n,
    ``_BINDING_FLOOR``^2), which keeps the O(|F|^3) = O(n^1.5) solve below
    the O(n^2) share of an operator product as n grows. The search starts
    from alpha, so an instance may take several face steps on one face. An
    accepted face step restarts the instance's momentum.

    An active instance without an accepted face step takes a
    projected-gradient step. The loop carries q = D alpha and
    q_prev = D prev, so the gradient at the extrapolated point
    y = alpha + m (alpha - prev) is q + m (q - q_prev) - b by linearity,
    and the candidate is P(y - eta (g + m (q - q_prev))), built for these
    instances only. With ``nesterov`` the momentum m follows FISTA's t
    sequence and restarts (t = 1) when the step opposes the momentum,
    (y - cand)'(cand - alpha) > 0 (the gradient scheme of O'Donoghue &
    Candes 2015, "Adaptive restart for accelerated gradient schemes"); the
    step is still taken. Without it m = 0 and this is plain projected
    gradient. Every new iterate, face step or not, goes through the
    step's one product D cand.

    Convergence is per instance: before each step, and once after the
    last, an instance whose projected gradient pg = alpha - P(alpha - g)
    has ||pg||^2 <= tol^2 freezes, so ``converged`` describes the returned
    alpha. pg takes a unit step, not eta: (alpha - P(alpha - eta g)) / eta
    shrinks as alpha / eta where a long step projects a coordinate onto 0,
    whatever its gradient. An instance whose ||pg||^2 is not finite (NaN,
    or past the float range) freezes as well, unconverged, and returns NaN
    alphas. Returns (alpha, iterations, converged) with per-instance step
    counts.
    """
    B, n = alpha0.shape
    alpha = _project(np.array(alpha0, dtype=np.float64), C)
    q = matvec(alpha)
    prev, q_prev = alpha, q
    t_mom = np.ones(B)
    eta = None
    tol2 = solver.tol * solver.tol
    guard = max(_BINDING_GUARD * n, _BINDING_FLOOR * _BINDING_FLOOR)
    active = np.ones(B, dtype=bool)
    failed = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(solver.max_iters + 1):
            g = q - b
            # pg = alpha - P(alpha - g), built in place
            pg = _project(alpha - g, C)
            np.subtract(alpha, pg, out=pg)
            pg2 = np.einsum("ij,ij->i", pg, pg)
            failed |= ~np.isfinite(pg2)
            active &= (pg2 > tol2) & ~failed
            if k == solver.max_iters or not active.any():
                break
            free = _binding_free(alpha, g, C)
            size = np.add.reduce(free, axis=1)
            take = active & (size * size <= guard)
            rows, points = _face_steps(gather, alpha, g, np.nonzero(take)[0], free, C)
            # a frozen instance keeps alpha, so its q needs no mask
            cand = alpha.copy()
            cand[rows] = points
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom)) if solver.nesterov else t_mom
            restart = np.ones(B, dtype=bool)
            plain = active.copy()
            plain[rows] = False
            if plain.any():
                if eta is None:
                    eta = (auto_steps() if solver.step_size == "auto"
                           else np.full(B, float(solver.step_size)))[:, None]
                p = slice(None) if plain.all() else np.nonzero(plain)[0]
                momentum = ((t_mom[p] - 1.0) / t_next[p])[:, None]
                # y = alpha + m (alpha - prev) and P(y - eta (g + m (q - q_prev))),
                # built in place; y then holds y - cand for the restart test
                a_p = alpha[p]
                y = a_p - prev[p]
                y *= momentum
                y += a_p
                step = q[p] - q_prev[p]
                step *= momentum
                step += g[p]
                step *= eta[p]
                c_p = _project(np.subtract(y, step, out=step), C)
                y -= c_p
                restart[p] = np.einsum("ij,ij->i", y, c_p - a_p) > 0.0
                cand[p] = c_p
            t_mom = np.where(restart, 1.0, t_next)
            prev, q_prev = alpha, q
            alpha, q = cand, matvec(cand)
            iterations += active

    alpha[failed] = np.nan
    return alpha, iterations, ~active & ~failed


def solve_pgd(inst: SvmInstance, cfg: SolverConfig, alpha0=None) -> DualSolution:
    """Run (optionally Nesterov-accelerated) projected gradient, with face
    steps, on one instance: ``_pgd_batched`` on a batch of one dense D,
    with the step 1 / lambda_max(D) = 1 / ||D||_2 for "auto". Raises
    ``SingularInstanceError`` when D is not positive definite.

    It starts at ``solve_inv``'s solution, as the batched ``pgd`` does,
    unless ``alpha0`` overrides it; the start is projected onto the box
    before the first step. With max_iters = 0 the projected start is
    returned, converged only if it is already stationary.
    """
    start = solve_inv(inst).alpha  # also the verdict on D
    matvec, gather = _dense_operator(inst.delta)
    b = np.full((1, inst.n), 2.0)
    a0 = np.asarray(start if alpha0 is None else alpha0, dtype=np.float64)[None]

    def auto_steps():
        # D is positive definite, so ||D||_2 is its largest eigenvalue; a
        # non-finite D, which ``_cholesky`` does not judge, gets NaN
        if not np.all(np.isfinite(inst.delta)):
            return np.array([math.nan])
        return np.array([1.0 / np.linalg.eigvalsh(inst.delta)[-1]])

    alpha, iters, converged = _pgd_batched(matvec, gather, b, inst.C, auto_steps, a0, cfg)
    return DualSolution(
        alpha=alpha[0],
        objective=dual_objective(inst.delta, alpha[0]),
        iterations=int(iters[0]),
        solver="pgd",
        converged=bool(converged[0]),
    )


def solve_inv(inst: SvmInstance) -> DualSolution:
    """Truncated least squares: clip(2 D^{-1} 1, 0, C) via a Cholesky solve.
    Raises ``SingularInstanceError`` when D is not positive definite. A
    non-finite D gives NaN alphas, not converged."""
    from scipy.linalg import cho_solve

    unconstrained = 2.0 * cho_solve(_cholesky(inst), np.ones(inst.n), check_finite=False)
    alpha = np.clip(unconstrained, 0.0, inst.C)
    return DualSolution(
        alpha=alpha,
        objective=dual_objective(inst.delta, alpha),
        iterations=1,
        solver="inv",
        converged=bool(np.all(np.isfinite(alpha))),
    )


def solve_oracle(inst: SvmInstance, tol: float = 1e-10, max_sweeps: int = 100000) -> DualSolution:
    """Cyclic exact coordinate minimization, swept until the largest
    per-sweep coordinate change is <= tol.

    Intended as the reference optimum for tests and diagnostics, not for
    the training loop. Raises ``SingularInstanceError`` when D is not
    positive definite. A non-finite D gives NaN alphas after no sweep,
    not converged.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _cholesky(inst)
    delta = inst.delta
    n = inst.n
    if not np.all(np.isfinite(delta)):
        return DualSolution(alpha=np.full(n, np.nan), objective=math.nan, iterations=0,
                            solver="oracle", converged=False)
    diag = np.diag(delta).copy()
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
