import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lapack

from mmcl import (KernelSpec, LossBatch, SingularInstanceError, SolverConfig, batch_loss,
                  build_instance, dual_objective, fn_correct, gram, kernel_eval, mmcl_grad,
                  mmcl_loss, nce_batch_loss, nce_grad, nce_loss, solve_inv, solve_oracle, solve_pgd)
from mmcl import config as cfgmod
from mmcl import loss as loss_module
from mmcl import svm as svm_module
from mmcl.data import stream_rng
from mmcl.loss import (_dsytrf_lwork, _dual_operator, _inv_batched, _negative_flat_index,
                       _pgd_batched, negative_indices, resolve_step_sizes)

from helpers import (RecordingOperator, _to_block, anchor_deltas, central_diff,
                     nce_batch_loss_reference, rel_err, training_batches, unit_columns)

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
        # the SVM decision function at z, alpha' (k(z+, z) 1 - k(Z-, z)),
        # written out from single kernel evaluations
        batch = random_batch(np.random.default_rng(seed))
        spec = spec_for(kind)
        score = sum(a * (kernel_eval(spec, batch.z_pos, batch.z) - kernel_eval(spec, z_neg, batch.z))
                    for a, z_neg in zip(batch.alpha, batch.Z_neg.T))
        assert abs(mmcl_loss(batch, spec) + score) <= 1e-12

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
                                     SolverConfig(max_iters=3))
        assert len(alphas) == N
        assert all(a.size == expected for a in alphas)

    @pytest.mark.parametrize("N", [2, 3, 7, 64])
    def test_negative_indices_order(self, N):
        # view-1 columns of the other batch items, then their view-2
        # columns, as a read-only cached array
        idx = negative_indices(N)
        assert idx.dtype == np.int64 and not idx.flags.writeable
        for k, cols in enumerate(idx):
            others = [j for j in range(N) if j != k]
            assert cols.tolist() == others + [N + j for j in others]
        # the same order as a cached, read-only index into a flat N x 2N block
        flat = _negative_flat_index(N)
        assert not flat.flags.writeable and _negative_flat_index(N) is flat
        block = np.random.default_rng(N).standard_normal((N, 2 * N))
        assert np.array_equal(block.take(flat), np.take_along_axis(block, idx, axis=1))

    def test_rejects_tiny_batch(self):
        rng = np.random.default_rng(0)
        v1, v2 = self._views(rng, 4, 1)
        with pytest.raises(ValueError):
            batch_loss(v1, v2, KernelSpec(), 100.0, 0.1, SolverConfig())

    @pytest.mark.parametrize("method", ["pgd", "inv"])
    @pytest.mark.parametrize("C,beta,message", [
        (0.0, 0.1, "C must be positive"), (-1.0, 0.1, "C must be positive"),
        (math.nan, 0.1, "C must be positive"), (100.0, -0.5, "beta must be nonnegative"),
        (100.0, math.nan, "beta must be nonnegative"), (100.0, math.inf, "beta must be nonnegative"),
        (math.inf, math.inf, "beta must be nonnegative")])
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
        solver = SolverConfig(max_iters=200, tol=1e-10)
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
        solver = SolverConfig(max_iters=300, tol=1e-12)
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

    def _check_matches_per_anchor(self, kernel, reference, nesterov=True):
        # every anchor rebuilt from its embeddings, solved alone by
        # ``reference`` (PGD from the same inv start with the same step, inv,
        # or the exact oracle, against which batched PGD is checked) and
        # scored by the mmcl_loss/mmcl_grad oracle
        rng = np.random.default_rng(21)
        N = 6
        v1, v2 = self._views(rng, 5, N)
        spec = EQUIVALENCE_KERNELS[kernel]
        C, beta = 3.0, 2.0
        # at N = 6, beta = 2 keeps every anchor's D positive definite for both
        # tanh slopes, so solve_inv (Cholesky) and solve_oracle accept them
        assert min(np.linalg.eigvalsh(delta).min() for delta in anchor_deltas(v1, v2, spec, beta)) > 0
        solver = SolverConfig(max_iters=2000, tol=1e-13, nesterov=nesterov)
        method = "inv" if reference == "inv" else "pgd"
        total, g1, g2, alphas = batch_loss(v1, v2, spec, C, beta, solver, method=method)
        assert alphas.shape == (N, 2 * N - 2)
        E = np.concatenate([v1, v2], axis=1)
        eta = resolve_step_sizes(gram(spec, E, E), beta)

        def anchor_terms(z, z_pos, Z_neg, k):
            inst = build_instance(spec, z_pos, Z_neg, C, beta)
            if reference == "pgd":
                sol = solve_pgd(inst, replace(solver, step_size=float(eta[k])))
            elif reference == "inv":
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

    @pytest.mark.parametrize("reference", ["pgd", "inv", "oracle"])
    @pytest.mark.parametrize("kernel", sorted(EQUIVALENCE_KERNELS))
    def test_batched_matches_per_anchor(self, kernel, reference):
        # batch_loss has no oracle method: the exact per-anchor optimum
        # checks batched pgd, within 6.1e-14 on these batches
        self._check_matches_per_anchor(kernel, reference)

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

    @staticmethod
    def _duplicated_views(rng, d, N):
        # repeated columns within a view and across views, positives equal
        # to their anchors, and a collapsed group of columns: exact ties
        v1, v2 = unit_columns(rng, d, N), unit_columns(rng, d, N)
        v1[:, 1] = v1[:, 0]
        v2[:, 3] = v2[:, 2]
        v2[:, 4] = v1[:, 5]
        v2[:, 6:9] = v1[:, 6:9]
        v1[:, 10:20] = v1[:, [9]]
        v2[:, 10:20] = v1[:, [9]]
        return v1, v2

    @pytest.mark.parametrize("tau", [0.01, 0.5, 100.0])
    def test_nce_batch_matches_per_anchor_with_duplicate_columns(self, tau):
        rng = np.random.default_rng(29)
        v1, v2 = self._duplicated_views(rng, 32, 256)
        total, g1, g2 = nce_batch_loss(v1, v2, tau)
        ref_total, r1, r2 = self._per_anchor(
            v1, v2, lambda z, z_pos, Z_neg, k: (nce_loss(z, z_pos, Z_neg, tau),
                                                nce_grad(z, z_pos, Z_neg, tau)))
        self._assert_close(total, ref_total, 1e-12)
        self._assert_close(g1, r1, 1e-12)
        self._assert_close(g2, r2, 1e-12)

    @pytest.mark.parametrize("tau", [1e-3, 0.5, 100.0])
    def test_nce_batch_matches_reference(self, tau):
        # the reference divides the scores by tau after the GEMM and keeps
        # each stage in an array of its own
        rng = np.random.default_rng(37)
        v1, v2 = self._duplicated_views(rng, 16, 64)
        for actual, reference in zip(nce_batch_loss(v1, v2, tau), nce_batch_loss_reference(v1, v2, tau)):
            self._assert_close(actual, reference, 1e-12)

    def test_nce_batch_writes_no_view_and_returns_new_arrays(self):
        rng = np.random.default_rng(43)
        v1, v2 = self._views(rng, 8, 16)
        before = v1.copy(), v2.copy()
        (_, *first), (_, *second) = nce_batch_loss(v1, v2, 0.5), nce_batch_loss(v1, v2, 0.5)
        assert np.array_equal(v1, before[0]) and np.array_equal(v2, before[1])
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert not any(np.shares_memory(a, b) for a in first for b in (*second, v1, v2))

    @pytest.mark.parametrize("fn_correction", [False, True])
    @pytest.mark.parametrize("method", ["pgd", "inv"])
    def test_batch_writes_no_view_and_returns_new_arrays(self, method, fn_correction):
        # the gradients are the two halves of one new array, and the alphas
        # are gathered from the block that the solve and the gradient
        # weights share; C = 0.05 puts alphas at the bound for fn_correction
        rng = np.random.default_rng(47)
        v1, v2 = self._views(rng, 8, 16)
        before = v1.copy(), v2.copy()
        first, second = (batch_loss(v1, v2, KernelSpec(kind="rbf"), 0.05, 0.1, SolverConfig(),
                                    fn_correction=fn_correction, method=method) for _ in range(2))
        assert np.array_equal(v1, before[0]) and np.array_equal(v2, before[1])
        assert first[0] == second[0]
        first, second = first[1:], second[1:]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert not any(np.shares_memory(a, b) for a in first for b in (*second, v1, v2))
        assert not any(np.shares_memory(first[2], g) for g in first[:2])

    def test_nce_batch_allocates_at_most_two_score_buffers(self):
        # the N x 2N score buffer is the one step-sized array; the softmax,
        # its gradient and the VJP's weights reuse it (5.3 buffers before)
        N, d = 256, 32
        rng = np.random.default_rng(N)
        v1, v2 = unit_columns(rng, d, N), unit_columns(rng, d, N)
        nce_batch_loss(v1, v2, 0.5)
        tracemalloc.start()
        try:
            nce_batch_loss(v1, v2, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * N * 2 * N * 8

    def test_fn_correction_applied(self):
        rng = np.random.default_rng(31)
        v1, v2 = self._views(rng, 4, 3)
        spec = KernelSpec(kind="rbf", sigma_sq=0.5)
        solver = SolverConfig(max_iters=400, tol=1e-12)
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

    BETA = 2.0

    @staticmethod
    def _gram(kernel, N):
        rng = np.random.default_rng([N, 5])
        v1, v2 = unit_columns(rng, 5, N), unit_columns(rng, 5, N)
        E = np.concatenate([v1, v2], axis=1)
        return rng, v1, v2, gram(EQUIVALENCE_KERNELS[kernel], E, E)

    @classmethod
    def _batch(cls, kernel, N):
        rng, v1, v2, K = cls._gram(kernel, N)
        return (rng, *_dual_operator(K, K + cls.BETA * np.eye(len(K))),
                anchor_deltas(v1, v2, EQUIVALENCE_KERNELS[kernel], cls.BETA))

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
        # the closed-form step is the reciprocal of an upper bound on each
        # lambda_max(D_k), which is ||D_k||_2 for every positive definite
        # D_k here, so a projected-gradient step never overshoots, and the
        # bound stays close: at most 1.50x here (linear, N = 3). The tanh
        # D_k of N = 32 are indefinite, which no solve accepts: the bound
        # still holds lambda_max, at 0.41x to 0.71x of their ||D_k||_2
        _, _, _, K = self._gram(kernel, N)
        _, _, _, deltas = self._batch(kernel, N)
        eta = resolve_step_sizes(K, self.BETA)
        assert eta.shape == (N,)
        for k, delta in enumerate(deltas):
            eig = np.linalg.eigvalsh(delta)
            assert eig[-1] <= 1.0 / eta[k] <= 1.55 * np.abs(eig).max()

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

    @classmethod
    def _pgd_inputs(cls, rng, kernel, N):
        """The linear terms, a random start and the step-size callable of a
        batched PGD run; the callable counts its calls in ``.calls``."""
        neg_idx = negative_indices(N)
        b = _to_block(neg_idx, 2.0)
        alpha0 = _to_block(neg_idx, rng.uniform(0.0, 1.0, (N, 2 * N - 2)))
        K = cls._gram(kernel, N)[3]

        def step_sizes():
            step_sizes.calls += 1
            return resolve_step_sizes(K, cls.BETA)

        step_sizes.calls = 0
        return b, alpha0, step_sizes

    @pytest.mark.parametrize("max_iters", [1000, 20])
    @pytest.mark.parametrize("nesterov", [True, False])
    def test_pgd_makes_one_operator_product_per_step(self, monkeypatch, nesterov, max_iters):
        # face steps included: their points go through the step's one product
        N = 32
        rng, matvec, gather, _ = self._batch("rbf", N)
        b, alpha0, eta = self._pgd_inputs(rng, "rbf", N)
        accepted = self._count_face_steps(monkeypatch)
        shapes = []

        def counted(A):
            shapes.append(A.shape)
            return matvec(A)

        _, iterations, _ = _pgd_batched(counted, gather, b, 100.0, eta, alpha0,
                                        SolverConfig(max_iters=max_iters, tol=1e-8, nesterov=nesterov))
        assert len(shapes) == iterations.max() + 1
        assert set(shapes) == {(N, 2 * N)}
        if max_iters == 1000:  # run to convergence, the batch takes face steps
            assert sum(accepted) > 0

    def test_plain_pgd_descends(self, monkeypatch):
        # a projected-gradient step of at most 1 / ||D||_2 descends, and a
        # face step descends by exactly -1/2 g'd
        N = 32
        rng, matvec, gather, deltas = self._batch("rbf", N)
        assert all(np.linalg.eigvalsh(delta)[0] > 0 for delta in deltas)
        b, alpha0, eta = self._pgd_inputs(rng, "rbf", N)
        accepted = self._count_face_steps(monkeypatch)
        recording = RecordingOperator(matvec)
        _, iterations, converged = _pgd_batched(recording, gather, b, 3.0, eta, alpha0,
                                                SolverConfig(tol=1e-8, nesterov=False))
        assert converged.all() and sum(accepted) > 0
        for trace in recording.traces(b, iterations):
            assert np.all(np.diff(trace) <= 1e-12)

    def test_numeric_step_size_needs_no_auto_steps(self):
        # a numeric solver.step_size is every instance's projected-gradient
        # step, and auto_steps is never called: the run equals an "auto" run
        # whose auto_steps returns that step. At N = 128 projected-gradient
        # steps are taken
        N = 128
        rng, _, _, K = self._gram("rbf", N)
        matvec, gather = _dual_operator(K, K + self.BETA * np.eye(len(K)))
        b, alpha0, _ = self._pgd_inputs(rng, "rbf", N)
        step = 0.9 * float(np.min(resolve_step_sizes(K, self.BETA)))
        calls = []

        def auto_steps():
            calls.append(step)
            return np.full(N, step)

        def unused():
            raise AssertionError("auto_steps called for a numeric step_size")

        auto = _pgd_batched(matvec, gather, b, 100.0, auto_steps, alpha0, SolverConfig(tol=1e-8))
        fixed = _pgd_batched(matvec, gather, b, 100.0, unused, alpha0,
                             SolverConfig(step_size=step, tol=1e-8))
        assert calls == [step] and auto[2].all()
        for ours, theirs in zip(fixed, auto):
            assert np.array_equal(ours, theirs)

    def test_face_blocks_stay_within_the_size_of_M(self):
        # faces are solved a few anchors at a time: no gathered stack of
        # blocks holds more doubles than the 2N x 2N matrix K + beta I, or
        # at small N than the floor of 2^15 under which every face of one
        # padded size goes into one stacked solve (N = 32; at N = 128 the
        # floor does not apply). The step sizes are computed once, however
        # many projected-gradient steps are taken (at N = 128, several per
        # anchor)
        for N in (32, 128):
            rng, _, _, K = self._gram("rbf", N)
            matvec, gather = _dual_operator(K, K + self.BETA * np.eye(len(K)))
            b, alpha0, eta = self._pgd_inputs(rng, "rbf", N)
            shapes = []

            def recording(rows, cols):
                blocks = gather(rows, cols)
                shapes.append(blocks.shape)
                return blocks

            _pgd_batched(matvec, recording, b, 100.0, eta, alpha0, SolverConfig(tol=1e-8))
            assert eta.calls == 1
            largest = max(r * f * f for r, f, _ in shapes)
            assert largest <= max((2 * N) ** 2, 2 ** 15)
            assert max(r for r, _, _ in shapes) > 1
            if N == 32:  # the floor is used
                assert largest > (2 * N) ** 2


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
        # 48 to 52 with the projected search from random starts, 26 to 30
        # from the inv solution with closed-form steps and a face step on
        # the settled face every second step, and 7 with a face step on the
        # binding free set every step
        tc = cfgmod.build_train_config(cfgmod.default_config())
        assert tc.solver.max_iters == 1000
        results = []

        def recording(*args, **kwargs):
            results.append(_pgd_batched(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loss_module, "_pgd_batched", recording)
        v1, v2 = self._bench_batch(seed, 64)
        batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
        _, iterations, converged = results[0]
        assert converged.all()
        assert iterations.max() <= 12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_C_converges_in_few_steps(self, monkeypatch, seed):
        # at C = 0.05 about half the coordinates sit at C; with face steps
        # from the first step on the slowest anchor of these batches needs 9
        # to 10 steps, where face steps from the second step on needed 11
        # to 12
        tc = cfgmod.build_train_config(cfgmod.default_config())
        results = []

        def recording(*args, **kwargs):
            results.append(_pgd_batched(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loss_module, "_pgd_batched", recording)
        v1, v2 = self._bench_batch(seed, 32)
        batch_loss(v1, v2, tc.kernel, 0.05, tc.beta, tc.solver, method="pgd")
        _, iterations, converged = results[0]
        assert converged.all()
        assert iterations.max() <= 10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projected_gradient_steps_converge_on_bench_inputs(self, monkeypatch, seed):
        # at N = 128, C = 0.05 the binding free sets outgrow the face-step
        # limit, so these batches take projected-gradient steps, which no
        # benchmark workload does: the step bound is computed once, and the
        # slowest anchor needs 31, 29 and 32 steps. Without Nesterov
        # momentum it needs 78, 68 and 69, and up to 99 without the
        # shorter-step search of the face steps
        tc = cfgmod.build_train_config(cfgmod.default_config())
        results, step_calls = [], []
        resolve = loss_module.resolve_step_sizes

        def recording(*args, **kwargs):
            results.append(_pgd_batched(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loss_module, "_pgd_batched", recording)
        monkeypatch.setattr(loss_module, "resolve_step_sizes",
                            lambda *args: step_calls.append(args) or resolve(*args))
        v1, v2 = self._bench_batch(seed, 128)
        batch_loss(v1, v2, tc.kernel, 0.05, tc.beta, tc.solver, method="pgd")
        _, iterations, converged = results[0]
        assert len(step_calls) == 1
        assert converged.all()
        assert iterations.max() <= 32

    def test_step_sizes_are_computed_only_for_projected_gradient_steps(self, monkeypatch):
        # on a default N = 32 batch every step of every anchor is a face
        # step, so the eigenvalue solve of the step-size bound never runs
        tc = cfgmod.build_train_config(cfgmod.default_config())
        calls = []
        resolve = loss_module.resolve_step_sizes

        def counting(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(loss_module, "resolve_step_sizes", counting)
        v1, v2 = self._bench_batch(0, 32)
        _, _, _, alphas = batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
        assert not calls and np.all(np.isfinite(alphas))

    def test_objective_matches_oracle_on_training_batches(self):
        # every 4th anchor of 8 batches from a seeded pgd_b32-style run, as
        # the benchmark's output checks sample them
        tc = cfgmod.build_train_config(cfgmod.default_config())
        for v1, v2 in training_batches(3, 8):
            _, _, _, alphas = batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
            E = np.concatenate([v1, v2], axis=1)
            for k, cols in list(enumerate(negative_indices(v1.shape[1])))[::4]:
                inst = build_instance(tc.kernel, E[:, k], E[:, cols], tc.C, tc.beta)
                star = solve_oracle(inst, tol=1e-12).objective
                assert abs(dual_objective(inst.delta, alphas[k]) - star) <= 1e-12 * abs(star)

    def test_face_steps_solve_exactly_the_small_binding_sets(self, monkeypatch):
        # an active anchor takes a face step on its binding free set F
        # exactly when |F|^2 <= max(_BINDING_GUARD n, _BINDING_FLOOR^2), and
        # otherwise a projected-gradient step. At C = 0.05 this batch of
        # N = 80 has face steps on sets within the guard, face steps on sets
        # that only the floor admits, and active anchors whose F is larger
        tc = cfgmod.build_train_config(cfgmod.default_config())
        counts = {"within_guard": 0, "within_floor": 0, "beyond": 0}
        face_steps = svm_module._face_steps

        def checking(gather, alpha, g, rows, free, C):
            assert np.array_equal(free, svm_module._binding_free(alpha, g, C))
            guard = svm_module._BINDING_GUARD * alpha.shape[1]
            limit = max(guard, svm_module._BINDING_FLOOR ** 2)
            size2 = np.sum(free, axis=1) ** 2
            pg = alpha - np.clip(alpha - g, 0.0, C)
            active = np.einsum("ij,ij->i", pg, pg) > tc.solver.tol ** 2
            assert np.array_equal(rows, np.nonzero(active & (size2 <= limit))[0])
            counts["within_guard"] += int(np.sum(size2[rows] <= guard))
            counts["within_floor"] += int(np.sum(size2[rows] > guard))
            counts["beyond"] += int(np.sum(active & (size2 > limit)))
            return face_steps(gather, alpha, g, rows, free, C)

        monkeypatch.setattr(svm_module, "_face_steps", checking)
        v1, v2 = self._bench_batch(0, 80)
        batch_loss(v1, v2, tc.kernel, 0.05, tc.beta, tc.solver, method="pgd")
        assert min(counts.values()) > 0

    def test_operator_products_are_pgd_steps_only(self, monkeypatch):
        # neither the start nor the step sizes take a product with the
        # operator: the PGD loop makes one before its first step and one per step
        tc = cfgmod.build_train_config(cfgmod.default_config())
        products, results = [], []
        dual_operator = loss_module._dual_operator

        def counting(*args):
            matvec, gather = dual_operator(*args)

            def counted(A):
                products.append(A.shape)
                return matvec(A)

            return counted, gather

        def recording(*args, **kwargs):
            results.append(_pgd_batched(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loss_module, "_dual_operator", counting)
        monkeypatch.setattr(loss_module, "_pgd_batched", recording)
        v1, v2 = self._bench_batch(0, 32)
        batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver, method="pgd")
        _, iterations, converged = results[0]
        assert converged.all()
        assert len(products) == iterations.max() + 1

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
        _, _, converged = results[0]
        assert len(products) <= 2
        assert np.all(np.isnan(alphas)) and math.isnan(total)
        assert not converged.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("N", [32, 64])
    def test_objective_matches_oracle_on_bench_inputs(self, N, seed):
        # every 4th anchor, as the benchmark's output checks sample them; at
        # the default C = 100 no coordinate sits at C, and at C = 0.05 about
        # half of them do
        tc = cfgmod.build_train_config(cfgmod.default_config())
        v1, v2 = self._bench_batch(seed, N)
        E = np.concatenate([v1, v2], axis=1)
        for C in (tc.C, 0.05):
            _, _, _, alphas = batch_loss(v1, v2, tc.kernel, C, tc.beta, tc.solver, method="pgd")
            assert np.any(alphas == C) == (C < tc.C)
            for k, cols in list(enumerate(negative_indices(N)))[::4]:
                inst = build_instance(tc.kernel, E[:, k], E[:, cols], C, tc.beta)
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


def rejected_anchors(v1, v2, spec, beta):
    """The anchors whose instance ``solve_inv`` rejects. Asserts that
    ``solve_pgd`` and ``solve_oracle`` reject exactly these anchors too."""
    E = np.concatenate([v1, v2], axis=1)
    rejected = []
    for k, cols in enumerate(negative_indices(v1.shape[1])):
        inst = build_instance(spec, E[:, k], E[:, cols], 3.0, beta)
        verdicts = []
        for solve in (solve_inv, lambda inst: solve_oracle(inst, max_sweeps=1),
                      lambda inst: solve_pgd(inst, SolverConfig(max_iters=0))):
            try:
                solve(inst)
                verdicts.append(False)
            except SingularInstanceError:
                verdicts.append(True)
        assert verdicts in ([False] * 3, [True] * 3)
        if verdicts[0]:
            rejected.append(k)
    return rejected


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
        # rejects some anchor and j is the first one, and solve_pgd and
        # solve_oracle reject the same anchors; batches whose K + beta I is
        # indefinite while every D_k is positive definite must succeed
        self._check_definiteness_verdict("inv")

    def test_pgd_verdict_matches_solve_inv(self):
        # the batches of test_definiteness_verdict_matches_solve_inv: pgd
        # raises on the same batches, naming the same anchor
        self._check_definiteness_verdict("pgd")

    @classmethod
    def _check_definiteness_verdict(cls, method):
        raised = indefinite_ok = 0
        for seed in range(80):
            rng = np.random.default_rng([seed, 11])
            N, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            spec = KernelSpec(kind="tanh", gamma=float(rng.uniform(0.2, 3.0)),
                              bias=float(rng.uniform(-1.0, 1.0)),
                              positive_gamma=bool(rng.integers(2)))
            beta = float(rng.uniform(0.05, 1.0))
            v1, v2 = unit_columns(rng, d, N), unit_columns(rng, d, N)
            outcome = cls._check_verdict(v1, v2, spec, beta, method)
            raised += outcome == "raised"
            indefinite_ok += outcome == "indefinite_ok"
        assert raised > 0
        assert indefinite_ok > 0

        # 2N > 64, where dsytrf factors by blocks. A positive slope and a
        # negative bias make K + beta I indefinite through the near-constant
        # part of K, which every D_k cancels. D_k is positive definite for
        # beta above -lambda_min(D_k at beta = 0); beta splits the largest
        # gap among the four largest of these thresholds, rejecting one to
        # three anchors, or lies above all of them
        for N in (48, 64):
            for seed in range(3):
                rng = np.random.default_rng([seed, N, 11])
                d = int(rng.integers(2, 6))
                spec = KernelSpec(kind="tanh", gamma=float(rng.uniform(0.2, 1.0)),
                                  bias=float(rng.uniform(-1.0, -0.2)), positive_gamma=True)
                v1, v2 = unit_columns(rng, d, N), unit_columns(rng, d, N)
                top = np.sort(-np.linalg.eigvalsh(anchor_deltas(v1, v2, spec, 0.0))[:, 0])[-4:]
                i = int(np.argmax(np.diff(top)))
                assert cls._check_verdict(v1, v2, spec, (top[i] + top[i + 1]) / 2, method) == "raised"
                beta = top[-1] + 0.05
                assert cls._check_verdict(v1, v2, spec, beta, method) == "indefinite_ok"
                # the factor has 2x2 pivots, whose negative eigenvalue the verdict counts
                E = np.concatenate([v1, v2], axis=1)
                ipiv = lapack.dsytrf(gram(spec, E, E) + beta * np.eye(2 * N), lower=1,
                                     lwork=_dsytrf_lwork(2 * N))[1]
                assert np.any(ipiv < 0)

    @staticmethod
    def _check_verdict(v1, v2, spec, beta, method):
        """Check ``batch_loss`` against the per-anchor solvers on one batch:
        it raises naming the first anchor they reject, or returns their
        alphas. Returns "raised", "indefinite_ok" when it solved a batch
        whose K + beta I is indefinite, or "ok"."""
        N = v1.shape[1]
        rejected = rejected_anchors(v1, v2, spec, beta)
        if rejected:
            with pytest.raises(SingularInstanceError, match=rf"^anchor {rejected[0]} of {N}: "):
                batch_loss(v1, v2, spec, 3.0, beta, SolverConfig(), method=method)
            return "raised"
        _, _, _, alphas = batch_loss(v1, v2, spec, 3.0, beta, SolverConfig(max_iters=0),
                                     method=method)
        E = np.concatenate([v1, v2], axis=1)
        for k, cols in enumerate(negative_indices(N)):
            ref = solve_inv(build_instance(spec, E[:, k], E[:, cols], 3.0, beta)).alpha
            TestBatchLoss._assert_close(alphas[k], ref, 1e-10)
        if np.linalg.eigvalsh(gram(spec, E, E) + beta * np.eye(2 * N))[0] < 0:
            return "indefinite_ok"
        return "ok"

    def test_singular_shared_matrix_raises(self):
        # beta = 0 and a repeated column make K + beta I singular; the
        # stacked LU solve returned non-finite or huge alphas here. Alone,
        # anchor 3's D_k is positive definite and solves; the others are not
        self._check_singular_shared_matrix_raises("inv")

    def test_pgd_raises_when_shared_matrix_is_singular(self):
        # the batch of test_singular_shared_matrix_raises: pgd raises as inv
        # does, where it used to start every anchor at 0
        self._check_singular_shared_matrix_raises("pgd")

    @staticmethod
    def _check_singular_shared_matrix_raises(method):
        rng = np.random.default_rng(12)
        v1, v2 = unit_columns(rng, 6, 5), unit_columns(rng, 6, 5)
        v2[:, 3] = v1[:, 1]
        spec = KernelSpec(kind="rbf")
        with pytest.raises(SingularInstanceError, match=r"^K \+ beta I of the batch of 5 is singular"):
            batch_loss(v1, v2, spec, 3.0, 0.0, SolverConfig(), method=method)
        assert rejected_anchors(v1, v2, spec, 0.0) == [0, 1, 2, 4]

    @pytest.mark.parametrize("C", [100.0, math.inf])
    @pytest.mark.parametrize("method", ["inv", "pgd"])
    def test_indefinite_tanh_batch_raises(self, method, C):
        # the default tanh kernel at N = 16, beta = 0.5: every D_k is
        # indefinite. pgd returned all 480 alphas at C = 100 (loss -3014)
        # and 480 NaN alphas at C = inf, without an error; now both methods
        # raise as solve_inv, solve_pgd and solve_oracle do on anchor 0
        rng = np.random.default_rng(0)
        v1, v2 = unit_columns(rng, 8, 16), unit_columns(rng, 8, 16)
        with pytest.raises(SingularInstanceError, match=r"^anchor 0 of 16: D is not positive definite"):
            batch_loss(v1, v2, KernelSpec(kind="tanh"), C, 0.5, SolverConfig(), method=method)
        assert rejected_anchors(v1, v2, KernelSpec(kind="tanh"), 0.5)[0] == 0

    @pytest.mark.parametrize("N", [2, 3, 32])
    @pytest.mark.parametrize("kernel", sorted(SHARED_INV_KERNELS))
    def test_pgd_starts_at_the_inv_solution(self, kernel, N):
        # every D_k is positive definite: with no step, pgd returns inv's alphas
        rng = np.random.default_rng([N, 7])
        v1, v2 = unit_columns(rng, 6, N), unit_columns(rng, 6, N)
        spec = SHARED_INV_KERNELS[kernel]
        _, _, _, inv = batch_loss(v1, v2, spec, 3.0, 0.1, SolverConfig(), method="inv")
        _, _, _, start = batch_loss(v1, v2, spec, 3.0, 0.1, SolverConfig(max_iters=0), method="pgd")
        assert np.array_equal(start, inv)
        assert np.any(start > 0.0)

    def test_nonfinite_embeddings_give_nan_alphas(self):
        # as the iterative solvers do, so that training aborts with diagnostics
        rng = np.random.default_rng(13)
        v1, v2 = unit_columns(rng, 6, 4), unit_columns(rng, 6, 4)
        v1[0, 2] = np.nan
        total, _, _, alphas = batch_loss(v1, v2, KernelSpec(), 3.0, 0.1, SolverConfig(), method="inv")
        assert np.all(np.isnan(alphas)) and math.isnan(total)

    def test_inv_never_writes_the_kernel_matrix(self):
        # LAPACK factors and inverts a buffer of its own, so that batch_loss
        # can reuse K for the gradient: K stays bit-equal on a solved batch,
        # a rejected tanh batch, a singular K + beta I and a non-finite K
        rng = np.random.default_rng(14)
        v1, v2 = unit_columns(rng, 6, 16), unit_columns(rng, 6, 16)
        singular = v2.copy()
        singular[:, 3] = v1[:, 1]
        nan = v1.copy()
        nan[0, 2] = np.nan
        cases = [(KernelSpec(kind="rbf"), v1, v2, 0.1, None),
                 (KernelSpec(kind="tanh"), v1, v2, 0.5, r"^anchor 0 of 16: D is not"),
                 (KernelSpec(kind="rbf"), v1, singular, 0.0, r"^K \+ beta I of the batch of 16 "),
                 (KernelSpec(kind="rbf"), nan, v2, 0.1, None)]
        for spec, a, b, beta, message in cases:
            E = np.concatenate([a, b], axis=1)
            K = gram(spec, E, E)
            before = K.copy()
            if message is None:
                _inv_batched(K, beta, 3.0)
            else:
                with pytest.raises(SingularInstanceError, match=message):
                    _inv_batched(K, beta, 3.0)
            assert np.array_equal(K, before, equal_nan=True)

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

    def test_inv_allocates_at_most_5_4_matrices_of_size_2N(self):
        # the (2N)^2 arrays of one inv call are K, the one buffer that holds
        # M = K + beta I and that dsytrf factors and dsytri inverts in place,
        # and the |M| or |P| of the singularity test; the rest is N x 2N
        # blocks. A copy of M for LAPACK's input peaked at 4.12, a separate
        # inverse and its symmetrized copy at 5.12, and building M twice
        # with np.eye temporaries at 5.58. The test's name keeps the bound
        # of 5.4 it was written with
        N = 256
        rng = np.random.default_rng(N)
        v1, v2 = unit_columns(rng, 32, N), unit_columns(rng, 32, N)
        args = (v1, v2, KernelSpec(kind="rbf"), 100.0, 0.1, SolverConfig())
        batch_loss(*args, method="inv")
        tracemalloc.start()
        try:
            batch_loss(*args, method="inv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.15 * (2 * N) ** 2 * 8
