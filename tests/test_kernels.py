import math

import numpy as np
import pytest

from mmcl import KernelSpec, kernel_eval, kernel_grad, gram
from mmcl.kernels import gram_vjp

from helpers import central_diff, rel_err, unit_columns

ALL_KINDS = ["linear", "rbf", "tanh"]


def spec_for(kind):
    return KernelSpec(kind=kind, sigma_sq=0.7, gamma=1.3, bias=0.2)


class TestKernelEval:
    def test_rbf_identical_inputs(self):
        a = np.array([0.3, -1.2, 4.0])
        assert kernel_eval(KernelSpec(kind="rbf", sigma_sq=2.0), a, a) == 1.0

    def test_rbf_at_two_sigma_sq(self):
        # ||a - b||^2 = 2 sigma_sq gives exp(-1)
        sigma_sq = 1.7
        a = np.zeros(4)
        b = np.zeros(4)
        b[0] = np.sqrt(2.0 * sigma_sq)
        val = kernel_eval(KernelSpec(kind="rbf", sigma_sq=sigma_sq), a, b)
        assert val == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_linear_orthogonal(self):
        assert kernel_eval(KernelSpec(kind="linear"), np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_tanh_matches_formula(self):
        spec = KernelSpec(kind="tanh", gamma=0.8, bias=0.3)
        a = np.array([0.5, -0.25])
        b = np.array([1.0, 2.0])
        assert kernel_eval(spec, a, b) == pytest.approx(np.tanh(-0.8 * (a @ b) + 0.3), abs=1e-15)

    def test_tanh_positive_gamma_switch(self):
        spec = KernelSpec(kind="tanh", gamma=0.8, bias=0.0, positive_gamma=True)
        a = np.array([1.0, 0.0])
        assert kernel_eval(spec, a, a) == pytest.approx(np.tanh(0.8), abs=1e-15)

    def test_default_tanh_decreasing_in_inner_product(self):
        spec = KernelSpec(kind="tanh", gamma=1.0, bias=0.0)
        a = np.array([1.0, 0.0])
        low = kernel_eval(spec, a, np.array([0.9, 0.0]))
        high = kernel_eval(spec, a, np.array([0.1, 0.0]))
        assert high > low

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec(kind="linear"), np.ones(3), np.ones(4))

    def test_bad_rbf_bandwidth(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", sigma_sq=0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("name", ["sigma_sq", "gamma", "bias"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_nonfinite_parameters(self, kind, name, value):
        with pytest.raises(ValueError, match=f"kernel.{name} must be finite"):
            KernelSpec(kind=kind, **{name: value})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="poly")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetry(self, kind, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        spec = spec_for(kind)
        lhs = kernel_eval(spec, a, b)
        rhs = kernel_eval(spec, b, a)
        if kind == "linear":
            assert lhs == rhs
        else:
            assert abs(lhs - rhs) <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_rbf_range(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        v = kernel_eval(KernelSpec(kind="rbf", sigma_sq=1.5), a, b)
        assert 0.0 < v < 1.0
        assert kernel_eval(KernelSpec(kind="rbf", sigma_sq=1.5), a, a) == 1.0


class TestGram:
    def test_rbf_single_column(self):
        A = np.array([[0.5], [1.5]])
        assert gram(KernelSpec(kind="rbf"), A, A) == pytest.approx(np.array([[1.0]]))

    def test_linear_identity_columns(self):
        A = np.eye(2)
        assert np.array_equal(gram(KernelSpec(kind="linear"), A, A), np.eye(2))

    def test_entries_match_kernel_eval(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 4))
        B = rng.standard_normal((5, 6))
        for kind in ALL_KINDS:
            spec = spec_for(kind)
            G = gram(spec, A, B)
            for i in range(4):
                for j in range(6):
                    assert G[i, j] == pytest.approx(kernel_eval(spec, A[:, i], B[:, j]), rel=1e-13, abs=1e-13)

    def test_rbf_gram_psd_small(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 16))
        G = gram(KernelSpec(kind="rbf", sigma_sq=1.0), A, A)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gram_psd(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((6, n))
        G = gram(spec_for(kind), A, A)
        eig = np.linalg.eigvalsh(G)
        assert eig.min() >= -1e-10 * max(eig.max(), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram(KernelSpec(kind="linear"), np.ones((3, 2)), np.ones((4, 2)))


class TestKernelGrad:
    def test_rbf_at_peak_is_zero(self):
        a = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(kernel_grad(KernelSpec(kind="rbf"), a, a), np.zeros(3))

    def test_linear_grad_is_first_argument(self):
        a = np.array([2.0, 3.0])
        assert np.array_equal(kernel_grad(KernelSpec(kind="linear"), a, np.array([9.0, -4.0])), a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_central_differences(self, kind, seed):
        rng = np.random.default_rng(100 + seed)
        spec = spec_for(kind)
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        analytic = kernel_grad(spec, a, b)
        fd = central_diff(lambda v: kernel_eval(spec, a, v), b, h=1e-5)
        assert rel_err(analytic, fd) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_positive_gamma_grad_matches_fd(self, kind):
        rng = np.random.default_rng(11)
        spec = KernelSpec(kind=kind, sigma_sq=0.5, gamma=2.0, bias=-0.1, positive_gamma=True)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        fd = central_diff(lambda v: kernel_eval(spec, a, v), b, h=1e-5)
        assert rel_err(kernel_grad(spec, a, b), fd) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_vectorized_helpers_match_kernel_grad(self, kind):
        rng = np.random.default_rng(5)
        spec = spec_for(kind)
        A = unit_columns(rng, 6, 9)
        b = rng.standard_normal(6)
        wrt_second = kernel_grad(spec, A, b)
        wrt_columns = kernel_grad(spec, b, A)
        assert wrt_second.shape == wrt_columns.shape == A.shape
        for i in range(9):
            assert rel_err(wrt_second[:, i], kernel_grad(spec, A[:, i], b)) <= 1e-14
            assert rel_err(wrt_columns[:, i], kernel_grad(spec, b, A[:, i])) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_grad(KernelSpec(kind="rbf"), np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            kernel_grad(KernelSpec(kind="rbf"), np.ones((2, 4)), np.ones(3))
        # two matrices are not a set of pairs
        with pytest.raises(ValueError, match="d-vector"):
            kernel_grad(KernelSpec(kind="rbf"), np.ones((3, 4)), np.ones((3, 4)))


class TestGramVjp:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_central_differences(self, kind):
        # A != B and a non-square W, so a transposed or swapped term shows
        rng = np.random.default_rng(17)
        spec = spec_for(kind)
        A = unit_columns(rng, 5, 3)
        B = unit_columns(rng, 5, 4)
        W = rng.standard_normal((3, 4))
        dA, dB = gram_vjp(spec, A, B, gram(spec, A, B), W)

        def weighted(flat, which):
            X = flat.reshape(5, -1)
            K = gram(spec, X, B) if which == "A" else gram(spec, A, X)
            return float(np.sum(W * K))

        fd_A = central_diff(lambda v: weighted(v, "A"), A.ravel()).reshape(A.shape)
        fd_B = central_diff(lambda v: weighted(v, "B"), B.ravel()).reshape(B.shape)
        assert rel_err(dA, fd_A) <= 1e-6
        assert rel_err(dB, fd_B) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_writes_neither_W_nor_K(self, kind):
        # the linear kernel's M is W itself; two calls return new arrays
        rng = np.random.default_rng(19)
        spec = spec_for(kind)
        A, B = unit_columns(rng, 5, 3), unit_columns(rng, 5, 4)
        K, W = gram(spec, A, B), rng.standard_normal((3, 4))
        K_before, W_before = K.copy(), W.copy()
        first, second = gram_vjp(spec, A, B, K, W), gram_vjp(spec, A, B, K, W)
        assert np.array_equal(K, K_before) and np.array_equal(W, W_before)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert not any(np.shares_memory(a, b) for a in first for b in (*second, A, B, K, W))
