import math
import tracemalloc

import numpy as np
import pytest

from mmcl import (KernelSpec, LossBatch, SingularInstanceError, SolverConfig, batch_loss,
                  build_instance, decision_function, dual_objective, fn_correct, gram, mmcl_grad,
                  mmcl_loss, nce_batch_loss, nce_grad, nce_loss, solve_inv, solve_oracle, solve_pgd)
from mmcl import config as cfgmod
from mmcl import loss as loss_module
from mmcl import svm as svm_module
from mmcl.data import stream_rng
from mmcl.loss import _dual_operator, _pgd_batched, _to_block, negative_indices, resolve_step_sizes
from mmcl.svm import _draw_alpha0, spectral_norm

from helpers import anchor_deltas, central_diff, rel_err, unit_columns

ALL_KINDS = ["linear", "rbf", "tanh"]

EQUIVALENCE_KERNELS = {
    "linear": KernelSpec(kind="linear"),
    "rbf": KernelSpec(kind="rbf", sigma_sq=0.8),
    "tanh": KernelSpec(kind="tanh", gamma=0.1, bias=0.1),
    "tanh_positive": KernelSpec(kind="tanh", gamma=0.1, bias=0.1, positive_gamma=True),
}


def random_batch(rng, d=6, n=5, alpha=None):
    z = unit_columns(rng, d, 1)[:, 0]
    z_pos = unit_columns(rng, d, 1)[:, 0]
    Z_neg = unit_columns(rng, d, n)
    if alpha is None:
        alpha = rng.uniform(0.0, 2.0, size=n)
    return LossBatch(z=z, z_pos=z_pos, Z_neg=Z_neg, alpha=alpha)


def spec_for(kind):
    return KernelSpec(kind=kind, sigma_sq=0.8, gamma=1.1, bias=0.1)


class TestMmclLoss:
    def test_zero_alpha(self):
        batch = random_batch(np.random.default_rng(0), alpha=np.zeros(5))
        assert mmcl_loss(batch, KernelSpec()) == 0.0

    def test_direct_substitution(self):
        # n=1, alpha=1, k(z-, z) = 0.2, k(z+, z) = 1.0 -> loss = -0.8
        spec = KernelSpec(kind="linear")
        z = np.array([1.0, 0.0])
        z_pos = np.array([1.0, 0.0])
        z_neg = np.array([[0.2], [0.0]])
        batch = LossBatch(z=z, z_pos=z_pos, Z_neg=z_neg, alpha=np.array([1.0]))
        assert mmcl_loss(batch, spec) == pytest.approx(-0.8, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_negated_decision_function(self, kind, seed):
        batch = random_batch(np.random.default_rng(seed))
        spec = spec_for(kind)
        assert abs(mmcl_loss(batch, spec) + decision_function(batch, spec)) <= 1e-12

    def test_monotone_in_positive_similarity(self):
        # move z along z+ while keeping every negative kernel value fixed:
        # with a linear kernel and z+ orthogonal to the negatives, only the
        # positive similarity changes, so the loss must strictly drop
        spec = KernelSpec(kind="linear")
        d = 4
        z_pos = np.array([1.0, 0.0, 0.0, 0.0])
        Z_neg = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.5], [0.0, 0.0]])
        alpha = np.array([0.7, 0.4])
        z1 = np.array([0.1, 0.3, 0.2, 0.0])
        z2 = z1 + 0.5 * z_pos
        b1 = LossBatch(z=z1, z_pos=z_pos, Z_neg=Z_neg, alpha=alpha)
        b2 = LossBatch(z=z2, z_pos=z_pos, Z_neg=Z_neg, alpha=alpha)
        assert mmcl_loss(b2, spec) < mmcl_loss(b1, spec)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LossBatch(z=np.ones(3), z_pos=np.ones(4), Z_neg=np.ones((3, 2)), alpha=np.ones(2))
        with pytest.raises(ValueError):
            LossBatch(z=np.ones(3), z_pos=np.ones(3), Z_neg=np.ones((3, 2)), alpha=np.ones(3))


class TestDecisionFunction:
    def test_direct_value(self):
        spec = KernelSpec(kind="linear")
        batch = LossBatch(z=np.array([1.0, 0.0]), z_pos=np.array([0.9, 0.0]),
                          Z_neg=np.array([[0.1], [0.0]]), alpha=np.array([1.0]))
        assert decision_function(batch, spec) == pytest.approx(0.8, abs=1e-15)

    def test_zero_alpha(self):
        batch = random_batch(np.random.default_rng(1), alpha=np.zeros(5))
        assert decision_function(batch, KernelSpec()) == 0.0


class TestMmclGrad:
    def test_zero_alpha_zero_grads(self):
        batch = random_batch(np.random.default_rng(2), alpha=np.zeros(5))
        g = mmcl_grad(batch, KernelSpec())
        assert not g.d_z.any() and not g.d_z_pos.any() and not g.d_Z_neg.any()

    def test_rbf_positive_term_vanishes_at_peak(self):
        # z == z+ puts the positive kernel at its peak: its contribution to
        # d_z_pos is zero, so d_z_pos reduces to exactly zero for rbf
        rng = np.random.default_rng(3)
        z = unit_columns(rng, 6, 1)[:, 0]
        batch = LossBatch(z=z, z_pos=z.copy(), Z_neg=unit_columns(rng, 6, 4),
                          alpha=rng.uniform(0.0, 1.0, 4))
        g = mmcl_grad(batch, KernelSpec(kind="rbf", sigma_sq=0.5))
        assert np.abs(g.d_z_pos).max() == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(40 + seed)
        batch = random_batch(rng)
        spec = spec_for(kind)
        g = mmcl_grad(batch, spec)

        fd_z = central_diff(lambda v: mmcl_loss(
            LossBatch(z=v, z_pos=batch.z_pos, Z_neg=batch.Z_neg, alpha=batch.alpha), spec), batch.z)
        assert rel_err(g.d_z, fd_z) <= 1e-4

        fd_pos = central_diff(lambda v: mmcl_loss(
            LossBatch(z=batch.z, z_pos=v, Z_neg=batch.Z_neg, alpha=batch.alpha), spec), batch.z_pos)
        assert rel_err(g.d_z_pos, fd_pos) <= 1e-4

        for i in range(batch.Z_neg.shape[1]):
            def loss_of_col(v, i=i):
                Z = batch.Z_neg.copy()
                Z[:, i] = v
                return mmcl_loss(LossBatch(z=batch.z, z_pos=batch.z_pos, Z_neg=Z, alpha=batch.alpha), spec)
            assert rel_err(g.d_Z_neg[:, i], central_diff(loss_of_col, batch.Z_neg[:, i])) <= 1e-4

    def test_stop_gradient_contract(self):
        # grads are linear in alpha and never trigger a re-solve: perturbing
        # alpha changes the grads exactly by the grads of the perturbation
        rng = np.random.default_rng(8)
        base = random_batch(rng)
        delta_alpha = rng.uniform(0.0, 0.5, size=base.alpha.size)
        spec = KernelSpec(kind="rbf", sigma_sq=0.7)

        def with_alpha(a):
            return LossBatch(z=base.z, z_pos=base.z_pos, Z_neg=base.Z_neg, alpha=a)

        g0 = mmcl_grad(with_alpha(base.alpha), spec)
        g1 = mmcl_grad(with_alpha(base.alpha + delta_alpha), spec)
        gd = mmcl_grad(with_alpha(delta_alpha), spec)
        assert np.abs((g1.d_z - g0.d_z) - gd.d_z).max() <= 1e-12
        assert np.abs((g1.d_z_pos - g0.d_z_pos) - gd.d_z_pos).max() <= 1e-12
        assert np.abs((g1.d_Z_neg - g0.d_Z_neg) - gd.d_Z_neg).max() <= 1e-12


class TestFnCorrect:
    def test_boundary_mixed_vector(self):
        out = fn_correct(np.array([0.0, 0.3, 100.0]), C=100.0)
        assert np.array_equal(out, [0.0, 0.3, 0.0])

    def test_interior_unchanged(self):
        a = np.array([0.1, 5.0, 99.9])
        assert np.array_equal(fn_correct(a, C=100.0), a)

    def test_all_at_bound(self):
        assert np.array_equal(fn_correct(np.full(4, 2.5), C=2.5), np.zeros(4))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, 8)
        a[[1, 5]] = 1.0
        once = fn_correct(a, C=1.0)
        assert np.array_equal(fn_correct(once, C=1.0), once)

    def test_tolerance_covers_round_off(self):
        assert fn_correct(np.array([2.0 - 1e-10]), C=2.0)[0] == 0.0
        assert fn_correct(np.array([2.0 - 1e-6]), C=2.0)[0] != 0.0

    def test_infinite_C_is_identity(self):
        a = np.array([0.0, 3.0, 1e12])
        assert np.array_equal(fn_correct(a, C=math.inf), a)


class TestNceLoss:
    def test_uniform_similarities(self):
        # equal scores make the softmax uniform: loss = log(n + 1)
        d = 3
        z = np.array([1.0, 0.0, 0.0])
        z_pos = np.array([0.0, 1.0, 0.0])
        Z_neg = np.stack([np.array([0.0, 1.0, 0.0])] * 4, axis=1)
        for tau in (0.5, 1.0):
            assert nce_loss(z, z_pos, Z_neg, tau) == pytest.approx(math.log(5.0), rel=1e-12)

    def test_separated_scores(self):
        # sims (1, -1, -1) at tau = 0.5: direct evaluation of
        # -log(e^2 / (e^2 + 2 e^-2)) = log1p(2 e^-4)
        z = np.array([1.0, 0.0])
        z_pos = np.array([1.0, 0.0])
        Z_neg = np.array([[-1.0, -1.0], [0.0, 0.0]])
        expected = math.log1p(2.0 * math.exp(-4.0))
        assert nce_loss(z, z_pos, Z_neg, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            nce_loss(np.ones(2), np.ones(2), np.ones((2, 1)), 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(60 + seed)
        z = unit_columns(rng, 5, 1)[:, 0]
        z_pos = unit_columns(rng, 5, 1)[:, 0]
        Z_neg = unit_columns(rng, 5, 4)
        tau = 0.5
        g = nce_grad(z, z_pos, Z_neg, tau)
        assert rel_err(g.d_z, central_diff(lambda v: nce_loss(v, z_pos, Z_neg, tau), z)) <= 1e-6
        assert rel_err(g.d_z_pos, central_diff(lambda v: nce_loss(z, v, Z_neg, tau), z_pos)) <= 1e-6
        for i in range(4):
            def f(v, i=i):
                Z = Z_neg.copy()
                Z[:, i] = v
                return nce_loss(z, z_pos, Z, tau)
            assert rel_err(g.d_Z_neg[:, i], central_diff(f, Z_neg[:, i])) <= 1e-6


class TestBatchLoss:
    def _views(self, rng, d, N):
        return unit_columns(rng, d, N), unit_columns(rng, d, N)

    @pytest.mark.parametrize("N,expected", [(2, 2), (4, 6), (128, 254)])
    def test_negative_counts(self, N, expected):
        rng = np.random.default_rng(0)
        v1, v2 = self._views(rng, 4, N)
        _, _, _, alphas = batch_loss(v1, v2, KernelSpec(), 100.0, 0.1,
                                     SolverConfig(max_iters=3, seed=0))
        assert len(alphas) == N
        assert all(a.size == expected for a in alphas)

    def test_rejects_tiny_batch(self):
        rng = np.random.default_rng(0)
        v1, v2 = self._views(rng, 4, 1)
        with pytest.raises(ValueError):
            batch_loss(v1, v2, KernelSpec(), 100.0, 0.1, SolverConfig())

    @pytest.mark.parametrize("method", ["pgd", "inv", "oracle"])
    @pytest.mark.parametrize("C,beta,message", [
        (0.0, 0.1, "C must be positive"), (-1.0, 0.1, "C must be positive"),
        (math.nan, 0.1, "C must be positive"), (100.0, -0.5, "beta must be nonnegative")])
    def test_rejects_out_of_range_C_and_beta(self, method, C, beta, message):
        # the same messages as build_instance, for every solver method
        rng = np.random.default_rng(0)
        v1, v2 = self._views(rng, 4, 4)
        with pytest.raises(ValueError, match=message):
            build_instance(KernelSpec(), v1[:, 0], v1[:, 1:], C, beta)
        with pytest.raises(ValueError, match=message):
            batch_loss(v1, v2, KernelSpec(), C, beta, SolverConfig(max_iters=3), method=method)

    def test_total_matches_per_anchor_recomputation(self):
        # rebuild every anchor's loss from scratch with scalar ops
        rng = np.random.default_rng(5)
        N, d = 4, 6
        v1, v2 = self._views(rng, d, N)
        spec = KernelSpec(kind="rbf", sigma_sq=0.9)
        solver = SolverConfig(max_iters=200, tol=1e-10, seed=7)
        total, _, _, alphas = batch_loss(v1, v2, spec, 10.0, 0.1, solver)
        E = np.concatenate([v1, v2], axis=1)
        expected = 0.0
        for k in range(N):
            cols = [j for j in range(N) if j != k] + [N + j for j in range(N) if j != k]
            lb = LossBatch(z=v2[:, k], z_pos=v1[:, k], Z_neg=E[:, cols], alpha=alphas[k])
            expected += mmcl_loss(lb, spec)
        assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("method", ["pgd", "inv"])
    def test_gradients_match_finite_differences(self, method):
        # alpha held fixed at the base solve while the embeddings move
        rng = np.random.default_rng(11)
        N, d = 3, 4
        v1, v2 = self._views(rng, d, N)
        spec = KernelSpec(kind="rbf", sigma_sq=1.1)
        solver = SolverConfig(max_iters=300, tol=1e-12, seed=1)
        total, g1, g2, alphas = batch_loss(v1, v2, spec, 100.0, 0.1, solver, method=method)

        E = np.concatenate([v1, v2], axis=1)

        def loss_with(views1, views2):
            stacked = np.concatenate([views1, views2], axis=1)
            out = 0.0
            for k in range(N):
                cols = [j for j in range(N) if j != k] + [N + j for j in range(N) if j != k]
                lb = LossBatch(z=views2[:, k], z_pos=views1[:, k],
                               Z_neg=stacked[:, cols], alpha=alphas[k])
                out += mmcl_loss(lb, spec)
            return out

        h = 1e-6
        for view_index, grads in ((0, g1), (1, g2)):
            fd = np.zeros_like(grads)
            for i in range(d):
                for j in range(N):
                    vp = [v1.copy(), v2.copy()]
                    vm = [v1.copy(), v2.copy()]
                    vp[view_index][i, j] += h
                    vm[view_index][i, j] -= h
                    fd[i, j] = (loss_with(*vp) - loss_with(*vm)) / (2 * h)
            assert rel_err(grads, fd) <= 1e-4

    @staticmethod
    def _per_anchor(v1, v2, anchor_terms):
        """Loss and view gradients composed anchor by anchor;
        ``anchor_terms(z, z_pos, Z_neg, k)`` returns (loss, LossGrads)."""
        N = v1.shape[1]
        E = np.concatenate([v1, v2], axis=1)
        d_E = np.zeros_like(E)
        total = 0.0
        for k in range(N):
            cols = [j for j in range(N) if j != k] + [N + j for j in range(N) if j != k]
            value, g = anchor_terms(E[:, N + k], E[:, k], E[:, cols], k)
            total += value
            d_E[:, N + k] += g.d_z
            d_E[:, k] += g.d_z_pos
            d_E[:, cols] += g.d_Z_neg
        return total, d_E[:, :N], d_E[:, N:]

    @staticmethod
    def _assert_close(actual, reference, rtol):
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert float(np.max(np.abs(np.asarray(actual) - reference))) <= rtol * scale

    def _check_matches_per_anchor(self, kernel, method, nesterov=True):
        # every anchor rebuilt from its embeddings, solved alone (PGD from
        # the same seeded start) and scored by the mmcl_loss/mmcl_grad oracle
        rng = np.random.default_rng(21)
        N = 6
        v1, v2 = self._views(rng, 5, N)
        spec = EQUIVALENCE_KERNELS[kernel]
        C, beta = 3.0, 2.0
        # at N = 6, beta = 2 keeps every anchor's D positive definite for both
        # tanh slopes, so solve_inv (Cholesky) and solve_oracle accept them
        assert min(np.linalg.eigvalsh(delta).min() for delta in anchor_deltas(v1, v2, spec, beta)) > 0
        solver = SolverConfig(max_iters=2000, tol=1e-13, seed=3, nesterov=nesterov)
        total, g1, g2, alphas = batch_loss(v1, v2, spec, C, beta, solver, method=method)
        assert alphas.shape == (N, 2 * N - 2)

        def anchor_terms(z, z_pos, Z_neg, k):
            inst = build_instance(spec, z_pos, Z_neg, C, beta)
            if method == "pgd":
                sol = solve_pgd(inst, solver, alpha0=_draw_alpha0(inst.n, C, [solver.seed, k]))
            elif method == "inv":
                sol = solve_inv(inst)
            else:
                sol = solve_oracle(inst, tol=solver.tol)
            self._assert_close(alphas[k], sol.alpha, 1e-12)
            batch = LossBatch(z=z, z_pos=z_pos, Z_neg=Z_neg, alpha=sol.alpha)
            return mmcl_loss(batch, spec), mmcl_grad(batch, spec)

        ref_total, r1, r2 = self._per_anchor(v1, v2, anchor_terms)
        self._assert_close(total, ref_total, 1e-12)
        self._assert_close(g1, r1, 1e-12)
        self._assert_close(g2, r2, 1e-12)

    @pytest.mark.parametrize("method", ["pgd", "inv", "oracle"])
    @pytest.mark.parametrize("kernel", sorted(EQUIVALENCE_KERNELS))
    def test_batched_matches_per_anchor(self, kernel, method):
        self._check_matches_per_anchor(kernel, method)

    @pytest.mark.parametrize("kernel", sorted(EQUIVALENCE_KERNELS))
    def test_batched_plain_pgd_matches_per_anchor(self, kernel):
        # PGD without Nesterov is the same loop with zero momentum
        self._check_matches_per_anchor(kernel, "pgd", nesterov=False)

    @pytest.mark.parametrize("tau", [0.5, 1e-3])
    def test_nce_batch_matches_per_anchor(self, tau):
        # at tau = 1e-3 the scores of unit embeddings reach 1e3 and exp
        # overflows unless each anchor's scores are shifted by their maximum
        rng = np.random.default_rng(23)
        v1, v2 = self._views(rng, 5, 7)
        total, g1, g2 = nce_batch_loss(v1, v2, tau)
        ref_total, r1, r2 = self._per_anchor(
            v1, v2, lambda z, z_pos, Z_neg, k: (nce_loss(z, z_pos, Z_neg, tau),
                                                nce_grad(z, z_pos, Z_neg, tau)))
        assert math.isfinite(total)
        self._assert_close(total, ref_total, 1e-12)
        self._assert_close(g1, r1, 1e-12)
        self._assert_close(g2, r2, 1e-12)

    def test_fn_correction_applied(self):
        rng = np.random.default_rng(31)
        v1, v2 = self._views(rng, 4, 3)
        spec = KernelSpec(kind="rbf", sigma_sq=0.5)
        solver = SolverConfig(max_iters=400, tol=1e-12, seed=5)
        C = 0.05  # tiny slack forces boundary hits
        _, _, _, raw = batch_loss(v1, v2, spec, C, 0.1, solver)
        _, _, _, corrected = batch_loss(v1, v2, spec, C, 0.1, solver, fn_correction=True)
        assert any(np.any(np.abs(a - C) <= 1e-9) for a in raw)
        for a in corrected:
            assert not np.any(np.abs(a - C) <= 1e-9) or np.all(a[np.abs(a - C) <= 1e-9] == 0)
            assert np.array_equal(fn_correct(a, C), a)

    def test_nce_batch_grads_match_fd(self):
        rng = np.random.default_rng(41)
        N, d = 3, 4
        v1, v2 = self._views(rng, d, N)
        tau = 0.5
        total, g1, g2 = nce_batch_loss(v1, v2, tau)
        h = 1e-6
        for view_index, grads in ((0, g1), (1, g2)):
            fd = np.zeros_like(grads)
            for i in range(d):
                for j in range(N):
                    vp = [v1.copy(), v2.copy()]
                    vm = [v1.copy(), v2.copy()]
                    vp[view_index][i, j] += h
                    vm[view_index][i, j] -= h
                    fd[i, j] = (nce_batch_loss(*vp, tau)[0] - nce_batch_loss(*vm, tau)[0]) / (2 * h)
            assert rel_err(grads, fd) <= 1e-6


class TestDualOperator:
    """The N x 2N block operator that batched PGD runs on, and its face-block
    gather, equal every anchor's assembled D_k. The tanh D_k of these
    batches are indefinite at N = 32."""

    @staticmethod
    def _batch(kernel, N):
        rng = np.random.default_rng([N, 5])
        v1, v2 = unit_columns(rng, 5, N), unit_columns(rng, 5, N)
        spec, beta = EQUIVALENCE_KERNELS[kernel], 2.0
        E = np.concatenate([v1, v2], axis=1)
        return rng, *_dual_operator(gram(spec, E, E), beta), anchor_deltas(v1, v2, spec, beta)

    @pytest.mark.parametrize("N", [2, 3, 32])
    @pytest.mark.parametrize("kernel", sorted(EQUIVALENCE_KERNELS))
    def test_matvec_matches_assembled_delta(self, kernel, N):
        rng, matvec, _, deltas = self._batch(kernel, N)
        neg_idx = negative_indices(N)
        A = _to_block(neg_idx, rng.uniform(-1.0, 1.0, (N, 2 * N - 2)))
        Q = matvec(A)
        for k, cols in enumerate(neg_idx):
            TestBatchLoss._assert_close(Q[k, cols], deltas[k] @ A[k, cols], 1e-14)
            assert Q[k, k] == 0.0 and Q[k, N + k] == 0.0

    @pytest.mark.parametrize("N", [2, 3, 32])
    @pytest.mark.parametrize("kernel", sorted(EQUIVALENCE_KERNELS))
    def test_face_gather_matches_assembled_delta(self, kernel, N):
        # one face size per call, from a single coordinate to every negative,
        # each row with its own coordinates in a random order
        rng, _, gather, deltas = self._batch(kernel, N)
        neg_idx = negative_indices(N)
        for f in sorted({1, N - 1, 2 * N - 2}):
            rows = rng.permutation(N)[:max(1, N // 2)]
            pos = np.stack([rng.permutation(2 * N - 2)[:f] for _ in rows])
            blocks = gather(rows, np.take_along_axis(neg_idx[rows], pos, axis=1))
            assert blocks.shape == (rows.size, f, f)
            for block, k, p in zip(blocks, rows, pos):
                TestBatchLoss._assert_close(block, deltas[k][np.ix_(p, p)], 1e-14)

    @pytest.mark.parametrize("N", [2, 3, 32])
    @pytest.mark.parametrize("kernel", sorted(EQUIVALENCE_KERNELS))
    def test_step_sizes_match_assembled_delta(self, kernel, N):
        # the batched power iteration is that of spectral_norm on each D_k;
        # it reaches lambda_max only when the top eigenvalue is well apart
        # (tanh's cluster near beta: 0.2 % off at N = 2), so the exact
        # eigenvalue is checked for linear and rbf
        _, matvec, _, deltas = self._batch(kernel, N)
        b = _to_block(negative_indices(N), 2.0)
        eta = resolve_step_sizes(matvec, b, "auto")
        assert eta.shape == (N,)
        for k, delta in enumerate(deltas):
            assert eta[k] == pytest.approx(1.0 / spectral_norm(delta), rel=1e-12)
            if kernel in ("linear", "rbf"):
                assert eta[k] == pytest.approx(1.0 / np.linalg.eigvalsh(delta).max(), rel=1e-9)
        assert np.array_equal(resolve_step_sizes(matvec, b, 0.25), np.full(N, 0.25))

    def test_spectral_norm_of_indefinite_duals(self):
        # every tanh D_k of this batch is indefinite (D_0 spans -4.5 to 2.0),
        # and power iteration finds the eigenvalue of largest magnitude
        _, _, _, deltas = self._batch("tanh", 32)
        for delta in deltas:
            exact = np.abs(np.linalg.eigvalsh(delta)).max()
            assert spectral_norm(delta) == pytest.approx(exact, rel=1e-9)

    @staticmethod
    def _count_face_steps(monkeypatch):
        """Rows that accept a face step, one entry per ``svm._face_steps`` call."""
        accepted = []
        face_steps = svm_module._face_steps

        def recording(*args):
            out = face_steps(*args)
            accepted.append(out[0].size)
            return out

        monkeypatch.setattr(svm_module, "_face_steps", recording)
        return accepted

    @staticmethod
    def _pgd_inputs(rng, matvec, N):
        neg_idx = negative_indices(N)
        b = _to_block(neg_idx, 2.0)
        alpha0 = _to_block(neg_idx, rng.uniform(0.0, 1.0, (N, 2 * N - 2)))
        return b, alpha0, resolve_step_sizes(matvec, b, "auto")

    @pytest.mark.parametrize("max_iters", [1000, 20])
    @pytest.mark.parametrize("nesterov", [True, False])
    def test_pgd_makes_one_operator_product_per_step(self, monkeypatch, nesterov, max_iters):
        # face steps included: their points go through the step's one product
        N = 32
        rng, matvec, gather, _ = self._batch("rbf", N)
        b, alpha0, eta = self._pgd_inputs(rng, matvec, N)
        accepted = self._count_face_steps(monkeypatch)
        shapes = []

        def counted(A):
            shapes.append(A.shape)
            return matvec(A)

        _, iterations, _, _ = _pgd_batched(counted, gather, b, 100.0, eta, alpha0, max_iters, 1e-8, nesterov)
        assert len(shapes) == iterations.max() + 1
        assert set(shapes) == {(N, 2 * N)}
        if max_iters == 1000:  # run to convergence, the batch takes face steps
            assert sum(accepted) > 0

    def test_plain_pgd_descends_on_indefinite_duals(self, monkeypatch):
        # every tanh D_k is indefinite here: a projected-gradient step of
        # 1 / ||D||_2 descends, and a face step descends by exactly -1/2 g'd
        N = 32
        rng, matvec, gather, deltas = self._batch("tanh", N)
        assert all(np.linalg.eigvalsh(delta)[0] < 0 for delta in deltas)
        b, alpha0, eta = self._pgd_inputs(rng, matvec, N)
        accepted = self._count_face_steps(monkeypatch)
        _, _, converged, traces = _pgd_batched(matvec, gather, b, 3.0, eta, alpha0, 1000, 1e-8,
                                               nesterov=False, record=True)
        assert converged.all() and sum(accepted) > 0
        for trace in traces:
            assert np.all(np.diff(trace) <= 1e-12)

    def test_face_blocks_stay_within_the_size_of_M(self):
        # faces are solved a few anchors at a time: no gathered stack of
        # blocks holds more doubles than the 2N x 2N matrix K + beta I
        N = 32
        rng, matvec, gather, _ = self._batch("rbf", N)
        b, alpha0, eta = self._pgd_inputs(rng, matvec, N)
        shapes = []

        def recording(rows, cols):
            blocks = gather(rows, cols)
            shapes.append(blocks.shape)
            return blocks

        _pgd_batched(matvec, recording, b, 100.0, eta, alpha0, 1000, 1e-8, True)
        assert max(r * f * f for r, f, _ in shapes) <= (2 * N) ** 2
        assert max(r for r, _, _ in shapes) > 1

    def test_singular_face_block_skips_only_its_row(self, monkeypatch):
        # anchor 0's face blocks are all singular: it steps without face
        # steps, and every other anchor takes exactly the steps it takes
        # with the true gather, also when it shares a batched solve with 0
        N = 32
        rng, matvec, gather, _ = self._batch("rbf", N)
        b, alpha0, eta = self._pgd_inputs(rng, matvec, N)
        reference = _pgd_batched(matvec, gather, b, 100.0, eta, alpha0, 1000, 1e-8, True)
        shared = []

        def singular_for_0(rows, cols):
            blocks = gather(rows, cols)
            blocks[rows == 0] = 0.0
            shared.append(0 in rows and rows.size > 1)
            return blocks

        accepted = self._count_face_steps(monkeypatch)
        alpha, iterations, converged, _ = _pgd_batched(
            matvec, singular_for_0, b, 100.0, eta, alpha0, 1000, 1e-8, True)
        assert any(shared) and sum(accepted) > 0
        assert converged.all() and reference[2].all()
        assert np.array_equal(alpha[1:], reference[0][1:])
        assert np.array_equal(iterations[1:], reference[1][1:])


class TestPgdConvergence:
    """Batched PGD under the default config on the batches that `mmcl bench`
    times."""

    @staticmethod
    def _bench_batch(seed, N):
        rng = stream_rng(seed, "bench", N)
        return tuple(X / np.linalg.norm(X, axis=0) for X in
                     (rng.standard_normal((16, N)), rng.standard_normal((16, N))))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_anchor_converges_on_bench_inputs(self, monkeypatch, seed):
        # the slowest anchor of these batches needs 482 to 530 steps without
        # face steps, 128 to 176 with face steps taken only inside the box,
        # and 48 to 52 with the projected search
        tc = cfgmod.build_train_config(cfgmod.default_config())
        assert tc.solver.max_iters == 1000
        results = []

        def recording(*args, **kwargs):
            results.append(_pgd_batched(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loss_module, "_pgd_batched", recording)
        v1, v2 = self._bench_batch(seed, 64)
        batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
        _, iterations, converged, _ = results[0]
        assert converged.all()
        assert iterations.max() <= 64

    def test_nonfinite_embedding_stops_at_once(self, monkeypatch):
        # one NaN embedding makes the gradient of every anchor NaN at the
        # start: each freezes there, unconverged, with NaN alphas, instead of
        # running the whole budget of steps on NaNs
        tc = cfgmod.build_train_config(cfgmod.default_config())
        products, results = [], []

        def recording(matvec, *args, **kwargs):
            def counted(A):
                products.append(A.shape)
                return matvec(A)

            results.append(_pgd_batched(counted, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loss_module, "_pgd_batched", recording)
        v1, v2 = self._bench_batch(0, 32)
        v1[3, 5] = np.nan
        total, _, _, alphas = batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
        _, _, converged, _ = results[0]
        assert len(products) <= 2
        assert np.all(np.isnan(alphas)) and math.isnan(total)
        assert not converged.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("N", [32, 64])
    def test_objective_matches_oracle_on_bench_inputs(self, N, seed):
        # every 4th anchor, as the benchmark's output checks sample them
        tc = cfgmod.build_train_config(cfgmod.default_config())
        v1, v2 = self._bench_batch(seed, N)
        _, _, _, alphas = batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
        E = np.concatenate([v1, v2], axis=1)
        for k, cols in list(enumerate(negative_indices(N)))[::4]:
            inst = build_instance(tc.kernel, E[:, k], E[:, cols], tc.C, tc.beta)
            star = solve_oracle(inst, tol=1e-12).objective
            assert abs(dual_objective(inst.delta, alphas[k]) - star) <= 1e-12 * abs(star)


# every anchor's D is positive definite for these kernels at beta = 0.1 and
# N <= 128: the default (negative) tanh slope needs gamma below about
# beta / (2N - 2), since its linear term enters D with a negative sign
SHARED_INV_KERNELS = {
    "linear": KernelSpec(kind="linear"),
    "rbf": KernelSpec(kind="rbf", sigma_sq=0.8),
    "tanh": KernelSpec(kind="tanh", gamma=2e-4, bias=0.1),
    "tanh_positive": KernelSpec(kind="tanh", gamma=0.1, bias=0.1, positive_gamma=True),
}


def stacked_inv_alphas(v1, v2, spec, C, beta):
    """clip(2 D_k^{-1} 1, 0, C) from the (N, 2N-2, 2N-2) stack of every
    anchor's D, each rebuilt from its embeddings and solved by LU: the
    reference for the shared factorization. Fails unless every D_k is
    positive definite."""
    deltas = anchor_deltas(v1, v2, spec, beta)
    np.linalg.cholesky(deltas)
    return np.clip(2.0 * np.linalg.solve(deltas, np.ones(deltas.shape[1])), 0.0, C)


def first_rejected_anchor(v1, v2, spec, beta):
    """The first anchor whose instance ``solve_inv`` rejects, or None."""
    N = v1.shape[1]
    E = np.concatenate([v1, v2], axis=1)
    for k, cols in enumerate(negative_indices(N)):
        try:
            solve_inv(build_instance(spec, E[:, k], E[:, cols], 3.0, beta))
        except SingularInstanceError:
            return k
    return None


class TestSharedFactorizationInv:
    """``batch_loss(method="inv")`` solves every anchor from one factorization
    of K + beta I; it must match the per-anchor solves it replaces."""

    @staticmethod
    def _check_against_stacked(v1, v2, spec, C, beta):
        total, g1, g2, alphas = batch_loss(v1, v2, spec, C, beta, SolverConfig(), method="inv")
        ref_alphas = stacked_inv_alphas(v1, v2, spec, C, beta)
        assert alphas.shape == ref_alphas.shape
        TestBatchLoss._assert_close(alphas, ref_alphas, 1e-10)

        def anchor_terms(z, z_pos, Z_neg, k):
            batch = LossBatch(z=z, z_pos=z_pos, Z_neg=Z_neg, alpha=ref_alphas[k])
            return mmcl_loss(batch, spec), mmcl_grad(batch, spec)

        ref_total, r1, r2 = TestBatchLoss._per_anchor(v1, v2, anchor_terms)
        TestBatchLoss._assert_close(total, ref_total, 1e-10)
        TestBatchLoss._assert_close(g1, r1, 1e-10)
        TestBatchLoss._assert_close(g2, r2, 1e-10)
        return alphas

    @pytest.mark.parametrize("C", [3.0, math.inf])
    @pytest.mark.parametrize("beta", [0.1, 2.0])
    @pytest.mark.parametrize("N", [2, 3, 32, 128])
    @pytest.mark.parametrize("kernel", sorted(SHARED_INV_KERNELS))
    def test_matches_stacked_solve(self, kernel, N, beta, C):
        rng = np.random.default_rng([N, 7])
        v1, v2 = unit_columns(rng, 6, N), unit_columns(rng, 6, N)
        self._check_against_stacked(v1, v2, SHARED_INV_KERNELS[kernel], C, beta)

    @pytest.mark.parametrize("kernel", sorted(SHARED_INV_KERNELS))
    def test_duplicate_columns_match_stacked_solve(self, kernel):
        # both views identical (as in `mmcl inspect --all-anchors`), and one
        # further column repeated: K has repeated rows, K + beta I does not
        rng = np.random.default_rng(8)
        v1 = unit_columns(rng, 6, 12)
        v1[:, 5] = v1[:, 2]
        self._check_against_stacked(v1, v1.copy(), SHARED_INV_KERNELS[kernel], 3.0, 0.1)

    @pytest.mark.parametrize("C", [3.0, 100.0, math.inf])
    @pytest.mark.parametrize("beta", [0.1, 2.0])
    def test_collapsed_embeddings_give_two_over_beta(self, beta, C):
        # every embedding equal: D = beta I for every anchor and kernel
        v = np.tile(unit_columns(np.random.default_rng(9), 6, 1), (1, 10))
        for spec in SHARED_INV_KERNELS.values():
            alphas = self._check_against_stacked(v, v.copy(), spec, C, beta)
            assert np.allclose(alphas, min(2.0 / beta, C), rtol=1e-12, atol=0.0)

    def test_definiteness_verdict_matches_solve_inv(self):
        # random tanh batches: inv raises naming anchor j iff solve_inv
        # rejects some anchor and j is the first one; batches whose K + beta I
        # is indefinite while every D_k is positive definite must succeed
        raised = indefinite_ok = 0
        for seed in range(80):
            rng = np.random.default_rng([seed, 11])
            N, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            spec = KernelSpec(kind="tanh", gamma=float(rng.uniform(0.2, 3.0)),
                              bias=float(rng.uniform(-1.0, 1.0)),
                              positive_gamma=bool(rng.integers(2)))
            beta = float(rng.uniform(0.05, 1.0))
            v1, v2 = unit_columns(rng, d, N), unit_columns(rng, d, N)
            first = first_rejected_anchor(v1, v2, spec, beta)
            if first is not None:
                with pytest.raises(SingularInstanceError, match=rf"^anchor {first} of {N}: "):
                    batch_loss(v1, v2, spec, 3.0, beta, SolverConfig(), method="inv")
                raised += 1
                continue
            _, _, _, alphas = batch_loss(v1, v2, spec, 3.0, beta, SolverConfig(), method="inv")
            E = np.concatenate([v1, v2], axis=1)
            for k, cols in enumerate(negative_indices(N)):
                ref = solve_inv(build_instance(spec, E[:, k], E[:, cols], 3.0, beta)).alpha
                TestBatchLoss._assert_close(alphas[k], ref, 1e-10)
            if np.linalg.eigvalsh(gram(spec, E, E) + beta * np.eye(2 * N))[0] < 0:
                indefinite_ok += 1
        assert raised > 0
        assert indefinite_ok > 0

    def test_singular_shared_matrix_raises(self):
        # beta = 0 and a repeated column make K + beta I singular; the
        # stacked LU solve returned non-finite or huge alphas here
        rng = np.random.default_rng(12)
        v1, v2 = unit_columns(rng, 6, 5), unit_columns(rng, 6, 5)
        v2[:, 3] = v1[:, 1]
        with pytest.raises(SingularInstanceError, match="singular"):
            batch_loss(v1, v2, KernelSpec(kind="rbf"), 3.0, 0.0, SolverConfig(), method="inv")

    def test_nonfinite_embeddings_give_nan_alphas(self):
        # as the iterative solvers do, so that training aborts with diagnostics
        rng = np.random.default_rng(13)
        v1, v2 = unit_columns(rng, 6, 4), unit_columns(rng, 6, 4)
        v1[0, 2] = np.nan
        total, _, _, alphas = batch_loss(v1, v2, KernelSpec(), 3.0, 0.1, SolverConfig(), method="inv")
        assert np.all(np.isnan(alphas)) and math.isnan(total)

    @pytest.mark.parametrize("method,max_iters", [("inv", 5), ("pgd", 5), ("pgd", 40)],
                             ids=["inv", "pgd", "pgd-face-steps"])
    def test_allocation_stays_quadratic(self, method, max_iters):
        # nothing of size O(N^3): the (N, 2N-2, 2N-2) stack of every anchor's D
        # was 66 MB at N = 128 and grew 8x per doubling of N; PGD, which
        # also iterated over it, peaked at 190 MB. 40 PGD steps include face
        # steps, whose gathered blocks stay within the size of K + beta I
        spec, solver = KernelSpec(kind="rbf"), SolverConfig(max_iters=max_iters)
        peaks = {}
        for N in (128, 256):
            rng = np.random.default_rng(N)
            v1, v2 = unit_columns(rng, 32, N), unit_columns(rng, 32, N)
            batch_loss(v1, v2, spec, 100.0, 0.1, solver, method=method)
            tracemalloc.start()
            try:
                batch_loss(v1, v2, spec, 100.0, 0.1, solver, method=method)
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[128] < 16e6
        assert peaks[256] < 6 * peaks[128]
