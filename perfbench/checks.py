"""Output checks of one training loss call against the slow per-anchor
references the package keeps as oracles.

A checked ``batch_loss`` call must reproduce the per-anchor composition of
``mmcl_loss`` / ``mmcl_grad`` on the alphas it returned. Its alphas must be
feasible, and each anchor's dual solution is compared with a reference:
``svm.solve_inv`` for the ``inv`` method (the same solution, so a miss fails
the step), ``svm.solve_oracle`` for ``pgd`` (the same objective; PGD is an
approximate solver, so a miss counts the anchor as unsolved without failing
the step). A checked ``nce_batch_loss`` call must reproduce the composition
of ``nce_loss`` / ``nce_grad``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mmcl import loss as mloss
from mmcl import svm

from catalog import OBJECTIVE_RTOL, ORACLE_ANCHORS, RTOL


@dataclass
class CheckResult:
    failures: list = field(default_factory=list)  # why the step failed, if it did
    anchors_checked: int = 0  # anchors compared with a dual reference
    anchors_unsolved: int = 0
    # on anchors with an oracle reference: relative objective gap and
    # whether the projected gradient exceeds the solver tolerance
    gaps: list = field(default_factory=list)
    unconverged: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def negatives(N: int, k: int) -> np.ndarray:
    """Anchor k's negatives among the stacked columns [view1 | view2]: the
    other view-1 columns, then the other view-2 columns."""
    others = np.array([j for j in range(N) if j != k], dtype=np.int64)
    return np.concatenate([others, N + others])


def _close(actual, reference, what: str, result: CheckResult) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if actual.shape != reference.shape:
        result.failures.append(f"{what}: shape {actual.shape} != {reference.shape}")
        return
    if not np.all(np.isfinite(actual)):
        result.failures.append(f"{what}: non-finite values")
        return
    err = float(np.linalg.norm(actual - reference))
    scale = max(float(np.linalg.norm(reference)), 1.0)
    if err > RTOL * scale:
        result.failures.append(f"{what}: relative error {err / scale:.3e} > {RTOL:g}")


def _compose(V1, V2, anchor_terms):
    """Sum per-anchor loss terms and scatter their gradients into the two
    views; ``anchor_terms(z, z_pos, Z_neg, k)`` returns (loss, LossGrads)."""
    N = V1.shape[1]
    E = np.concatenate([V1, V2], axis=1)
    d_E = np.zeros_like(E)
    total = 0.0
    for k in range(N):
        idx = negatives(N, k)
        value, g = anchor_terms(E[:, N + k], E[:, k], E[:, idx], k)
        total += value
        d_E[:, N + k] += g.d_z
        d_E[:, k] += g.d_z_pos
        d_E[:, idx] += g.d_Z_neg
    return total, d_E[:, :N], d_E[:, N:]


def nce_reference(V1, V2, temperature):
    """(loss, view-1 gradient, view-2 gradient) composed from ``nce_loss``
    and ``nce_grad`` anchor by anchor."""
    def terms(z, z_pos, Z_neg, k):
        return (mloss.nce_loss(z, z_pos, Z_neg, temperature),
                mloss.nce_grad(z, z_pos, Z_neg, temperature))
    return _compose(V1, V2, terms)


def mmcl_reference(V1, V2, alphas, spec):
    """(loss, view-1 gradient, view-2 gradient) composed from ``mmcl_loss``
    and ``mmcl_grad`` anchor by anchor, on the given alphas."""
    def terms(z, z_pos, Z_neg, k):
        batch = mloss.LossBatch(z=z, z_pos=z_pos, Z_neg=Z_neg, alpha=alphas[k])
        return mloss.mmcl_loss(batch, spec), mloss.mmcl_grad(batch, spec)
    return _compose(V1, V2, terms)


def check_nce(args, kwargs, out) -> CheckResult:
    V1, V2, temperature = _bind(("view1", "view2", "temperature"), args, kwargs)
    total, G1, G2 = out
    result = CheckResult()
    ref_total, R1, R2 = nce_reference(V1, V2, temperature)
    _close(total, ref_total, "loss", result)
    _close(G1, R1, "view-1 gradient", result)
    _close(G2, R2, "view-2 gradient", result)
    return result


def check_mmcl(args, kwargs, out, inv_oracle: bool) -> CheckResult:
    """Check one ``batch_loss`` call. The oracle runs on every
    ``N // ORACLE_ANCHORS``-th anchor; for ``inv`` only with ``inv_oracle``
    set, since there it feeds no end-to-end metric."""
    names = ("view1", "view2", "spec", "C", "beta", "solver", "fn_correction", "method")
    V1, V2, spec, C, beta, solver, fn_correction, method = _bind(names, args, kwargs)
    if fn_correction:
        raise ValueError("the output checks assume fn_correction = false")
    total, G1, G2, alphas = out
    N = V1.shape[1]
    result = CheckResult()
    alphas = [np.asarray(a, dtype=np.float64) for a in alphas]
    if len(alphas) != N or any(a.shape != (2 * N - 2,) for a in alphas):
        result.failures.append(f"alphas: expected {N} vectors of length {2 * N - 2}")
        return result
    ref_total, R1, R2 = mmcl_reference(V1, V2, alphas, spec)
    _close(total, ref_total, "loss", result)
    _close(G1, R1, "view-1 gradient", result)
    _close(G2, R2, "view-2 gradient", result)

    stacked = np.stack(alphas)
    if not np.all(np.isfinite(stacked)) or stacked.min() < 0.0 or stacked.max() > C:
        result.failures.append(f"alphas: outside the box [0, {C}]")
        return result

    E = np.concatenate([V1, V2], axis=1)
    oracle_step = max(1, N // ORACLE_ANCHORS)
    for k in range(N):
        with_oracle = k % oracle_step == 0 and (method == "pgd" or inv_oracle)
        if method != "inv" and not with_oracle:
            continue
        inst = svm.build_instance(spec, E[:, k], E[:, negatives(N, k)], C, beta)
        alpha = alphas[k]
        if method == "inv":
            result.anchors_checked += 1
            ref = svm.solve_inv(inst).alpha
            err = float(np.max(np.abs(alpha - ref)))
            if err > RTOL * max(1.0, float(np.max(np.abs(ref)))):
                result.anchors_unsolved += 1
                result.failures.append(f"anchor {k}: inv alpha differs from solve_inv by {err:.3e}")
        if not with_oracle:
            continue
        oracle = svm.solve_oracle(inst)
        gap = (svm.dual_objective(inst.delta, alpha) - oracle.objective) / max(1.0, abs(oracle.objective))
        result.gaps.append(gap)
        result.unconverged.append(_projected_gradient_norm(inst.delta, alpha, C) > solver.tol)
        if method == "pgd":
            result.anchors_checked += 1
            if gap > OBJECTIVE_RTOL:
                result.anchors_unsolved += 1
    return result


def _projected_gradient_norm(delta, alpha, C) -> float:
    """Norm of the gradient mapping the solver tests against ``tol``, with
    the exact step 1 / lambda_max(D) in place of the power-iteration one."""
    eta = 1.0 / float(np.linalg.eigvalsh(delta)[-1])
    grad = delta @ alpha - 2.0
    return float(np.linalg.norm((alpha - np.clip(alpha - eta * grad, 0.0, C)) / eta))


def _bind(names, args, kwargs):
    """Positional-or-keyword arguments of a loss call, in ``names`` order;
    ``fn_correction`` and ``method`` default as in ``batch_loss``."""
    defaults = {"fn_correction": False, "method": "pgd"}
    values = dict(zip(names, args))
    for name in names[len(args):]:
        values[name] = kwargs.get(name, defaults.get(name))
    return [np.asarray(values[n], dtype=np.float64) if n.startswith("view") else values[n]
            for n in names]
