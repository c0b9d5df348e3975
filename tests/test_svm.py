import math
import warnings

import numpy as np
import pytest

from mmcl import (KernelSpec, SolverConfig, SingularInstanceError, SvmInstance,
                  build_instance, dual_objective, kernel_eval, solve_inv,
                  solve_oracle, solve_pgd)
from mmcl import svm as svm_module
from mmcl.loss import negative_indices
from mmcl.svm import _binding_free, _dense_operator, _face_steps

import test_loss
from helpers import (RecordingOperator, _to_block, face_search_reference, random_instance,
                     rotated_spectrum_delta, unit_columns)


def make_instance(delta, C=100.0, beta=0.0):
    delta = np.asarray(delta, dtype=np.float64)
    return SvmInstance(delta=delta, C=C, beta=beta)


class TestBuildInstance:
    def test_single_coincident_negative(self):
        z = np.array([0.3, 0.4])
        inst = build_instance(KernelSpec(kind="rbf"), z, z[:, None], C=100.0, beta=0.0)
        assert inst.delta == pytest.approx(np.array([[0.0]]), abs=1e-15)

    def test_orthogonal_unit_columns(self):
        # linear kernel on orthonormal columns: k_xY = 0, K_YY = I, k_xx = 1
        z_pos = np.array([1.0, 0.0, 0.0])
        Z_neg = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        inst = build_instance(KernelSpec(kind="linear"), z_pos, Z_neg, C=100.0, beta=0.0)
        assert np.array_equal(inst.delta, np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_entrywise_recomputation(self):
        # delta - beta I recomputed entrywise from scalar kernel calls:
        # the Gram matrix of the RKHS differences phi(z+) - phi(z_i-)
        rng = np.random.default_rng(42)
        spec = KernelSpec(kind="rbf", sigma_sq=0.8)
        z_pos = unit_columns(rng, 6, 1)[:, 0]
        Z_neg = unit_columns(rng, 6, 10)
        beta = 0.1
        inst = build_instance(spec, z_pos, Z_neg, C=100.0, beta=beta)
        expected = np.empty((10, 10))
        for i in range(10):
            for j in range(10):
                expected[i, j] = (kernel_eval(spec, z_pos, z_pos)
                                  - kernel_eval(spec, z_pos, Z_neg[:, i])
                                  - kernel_eval(spec, z_pos, Z_neg[:, j])
                                  + kernel_eval(spec, Z_neg[:, i], Z_neg[:, j]))
        assert np.abs(inst.delta - beta * np.eye(10) - expected).max() <= 1e-12

    def test_regularized_min_eigenvalue(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            inst = random_instance(np.random.default_rng(seed), n=12, beta=0.1)
            assert np.linalg.eigvalsh(inst.delta).min() >= 0.1 - 1e-10

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            build_instance(KernelSpec(), np.ones(3), np.ones((3, 0)), 100.0, 0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_instance(KernelSpec(), np.ones(3), np.ones((4, 2)), 100.0, 0.1)


class TestDualObjective:
    def test_zero_alpha(self):
        assert dual_objective(np.eye(3), np.zeros(3)) == 0.0

    def test_scalar_case(self):
        assert dual_objective(np.array([[2.0]]), np.array([1.0])) == -1.0

    def test_matches_solution_objective(self):
        for seed in range(10):
            inst = random_instance(np.random.default_rng(seed), n=8)
            for sol in (solve_inv(inst), solve_oracle(inst)):
                assert abs(dual_objective(inst.delta, sol.alpha) - sol.objective) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dual_objective(np.eye(2), np.zeros(3))


class TestSolveInv:
    def test_scalar(self):
        sol = solve_inv(make_instance([[2.0]]))
        assert sol.alpha == pytest.approx([1.0], abs=1e-14)
        assert sol.objective == pytest.approx(-1.0, abs=1e-14)
        assert sol.converged and sol.iterations == 1

    def test_two_by_two_interior(self):
        sol = solve_inv(make_instance([[2.0, 1.0], [1.0, 2.0]]))
        assert sol.alpha == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-14)

    def test_projection_clips(self):
        sol = solve_inv(make_instance([[2.0, 1.0], [1.0, 2.0]], C=0.5))
        assert np.array_equal(sol.alpha, [0.5, 0.5])

    def test_singular_delta_raises(self):
        inst = make_instance([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularInstanceError, match="n=2"):
            solve_inv(inst)

    def test_unbounded_C(self):
        sol = solve_inv(make_instance([[2.0, 1.0], [1.0, 2.0]], C=math.inf))
        assert sol.alpha == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-14)


class TestSolveOracle:
    def test_diagonal_clipped(self):
        sol = solve_oracle(make_instance(2.0 * np.eye(4), C=0.5))
        assert np.array_equal(sol.alpha, np.full(4, 0.5))

    def test_two_by_two_matches_inv(self):
        sol = solve_oracle(make_instance([[2.0, 1.0], [1.0, 2.0]]))
        assert sol.alpha == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-10)

    def test_nonpositive_diagonal_rejected(self):
        # the verdict that solve_inv and solve_pgd apply: D is not positive definite
        with pytest.raises(SingularInstanceError, match="n=2.*not positive definite"):
            solve_oracle(make_instance([[0.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("C", [1.0, 100.0, math.inf])
    def test_kkt_conditions(self, C):
        tol = 1e-6
        for seed in range(20):
            inst = random_instance(np.random.default_rng(seed), n=16, C=C)
            sol = solve_oracle(inst, tol=1e-10)
            grad = inst.delta @ sol.alpha - 2.0
            for i in range(inst.n):
                if sol.alpha[i] <= tol:
                    assert grad[i] >= -tol
                elif math.isfinite(C) and sol.alpha[i] >= C - tol:
                    assert grad[i] <= tol
                else:
                    assert abs(grad[i]) <= tol

    def test_box_feasibility_exact(self):
        for seed in range(10):
            inst = random_instance(np.random.default_rng(seed), n=12, C=1.0)
            for sol in (solve_oracle(inst), solve_inv(inst),
                        solve_pgd(inst, SolverConfig(max_iters=50, seed=seed))):
                assert np.all(sol.alpha >= 0.0)
                assert np.all(sol.alpha <= 1.0)


class TestSolvePgd:
    def test_oracle_point_is_fixed(self):
        inst = random_instance(np.random.default_rng(1), n=10)
        star = solve_oracle(inst, tol=1e-12).alpha
        for nesterov in (False, True):
            cfg = SolverConfig(max_iters=100, tol=1e-8, nesterov=nesterov)
            sol = solve_pgd(inst, cfg, alpha0=star)
            assert np.abs(sol.alpha - star).max() <= 1e-12
            assert sol.converged

    def test_diagonal_single_step(self):
        inst = make_instance(2.0 * np.eye(4))
        cfg = SolverConfig(step_size=0.5, max_iters=1, tol=1e-12, nesterov=False)
        sol = solve_pgd(inst, cfg, alpha0=np.zeros(4))
        assert np.array_equal(sol.alpha, np.ones(4))
        assert sol.iterations == 1

    def test_zero_iteration_budget(self):
        inst = make_instance(2.0 * np.eye(3), C=0.5)
        cfg = SolverConfig(max_iters=0, seed=3)
        sol = solve_pgd(inst, cfg, alpha0=np.array([-1.0, 0.25, 2.0]))
        assert np.array_equal(sol.alpha, [0.0, 0.25, 0.5])  # projected initial point
        assert not sol.converged
        assert sol.iterations == 0

    def test_nonfinite_delta_is_never_converged(self):
        # the NaN gradient at the start freezes the instance before its first step
        inst = random_instance(np.random.default_rng(0), n=5)
        inst.delta[0, 0] = np.nan
        for nesterov in (False, True):
            sol = solve_pgd(inst, SolverConfig(max_iters=50, nesterov=nesterov))
            assert np.all(np.isnan(sol.alpha))
            assert not sol.converged and sol.iterations == 0

    def test_divergent_step_overflows_without_warnings(self):
        # a step of 1e300 on a positive definite rbf D with C = inf jumps
        # from 0 to about 1e300, where the gradient, and so the projected
        # gradient, overflows. At n = 64 the start's binding free set is too
        # large for a face step, so the first step is the long one, and the
        # instance freezes after it, as failed, with NaN alphas. The run
        # reads unconverged, and no RuntimeWarning escapes (tier-1 turns
        # them into errors)
        inst = random_instance(np.random.default_rng(7), n=64, C=math.inf)
        assert np.linalg.eigvalsh(inst.delta)[0] > 0
        sol = solve_pgd(inst, SolverConfig(step_size=1e300, max_iters=50, nesterov=False),
                        alpha0=np.zeros(64))
        assert not sol.converged and sol.iterations == 1
        assert np.all(np.isnan(sol.alpha))

    def test_long_step_does_not_read_converged(self):
        # the step-scaled mapping (alpha - P(alpha - eta g)) / eta read the
        # n = 32 random start converged before any step at eta = 1e300, with
        # the objective 7.37 against the optimum -13.15. The unit-step
        # projected gradient does not shrink with eta. At n = 64 the start's
        # binding free set is too large for a face step, so the long step is
        # taken: the run diverges, unconverged, and the default step solves
        # the same instance
        inst = random_instance(np.random.default_rng(4), n=64, C=math.inf)
        star = solve_oracle(inst, tol=1e-12).objective
        assert star == pytest.approx(-32.10, abs=0.01)
        sol = solve_pgd(inst, SolverConfig(step_size=1e300, max_iters=50, nesterov=False))
        assert not sol.converged and sol.iterations > 0
        sol = solve_pgd(inst, SolverConfig(max_iters=50, nesterov=False))
        assert sol.converged and sol.objective == pytest.approx(star, rel=1e-12)
        # at n = 32 face steps take every step, so eta = 1e300 is never used
        # and the run stops at the optimum
        inst = random_instance(np.random.default_rng(4), n=32, C=math.inf)
        star = solve_oracle(inst, tol=1e-12).objective
        assert star == pytest.approx(-13.15, abs=0.01)
        sol = solve_pgd(inst, SolverConfig(step_size=1e300, max_iters=50, nesterov=False))
        assert sol.converged and sol.objective == pytest.approx(star, rel=1e-12)

    def test_matches_oracle_on_moderate_conditioning(self):
        count = 0
        for seed in range(30):
            inst = random_instance(np.random.default_rng(200 + seed), n=16)
            eig = np.linalg.eigvalsh(inst.delta)
            if eig.max() / eig.min() > 100:
                continue
            count += 1
            star = solve_oracle(inst, tol=1e-12)
            cfg = SolverConfig(step_size="auto", max_iters=1000, tol=1e-12, nesterov=False, seed=seed)
            sol = solve_pgd(inst, cfg)
            assert abs(sol.objective - star.objective) / abs(star.objective) <= 1e-6
        assert count >= 5  # the conditioning filter must leave real cases

    @staticmethod
    def _objective_trace(monkeypatch, inst, cfg):
        """``solve_pgd``'s objective before its first step and after every
        step, rebuilt from the inputs of the operator it runs on."""
        recordings = []
        dense_operator = svm_module._dense_operator

        def recording(delta):
            matvec, gather = dense_operator(delta)
            recordings.append(RecordingOperator(matvec))
            return recordings[-1], gather

        monkeypatch.setattr(svm_module, "_dense_operator", recording)
        sol = solve_pgd(inst, cfg)
        return recordings[-1].traces(np.full((1, inst.n), 2.0), [sol.iterations])[0]

    def test_monotone_descent_plain(self, monkeypatch):
        for seed in range(5):
            inst = random_instance(np.random.default_rng(300 + seed), n=12)
            cfg = SolverConfig(step_size="auto", max_iters=200, tol=1e-14, nesterov=False, seed=seed)
            trace = self._objective_trace(monkeypatch, inst, cfg)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_iterates_stay_in_box(self):
        inst = random_instance(np.random.default_rng(17), n=8, C=0.3)
        cfg = SolverConfig(max_iters=50, seed=0)
        sol = solve_pgd(inst, cfg)
        assert np.all((sol.alpha >= 0.0) & (sol.alpha <= 0.3))

    def test_seeded_initialization_is_deterministic(self):
        inst = random_instance(np.random.default_rng(23), n=8)
        cfg = SolverConfig(max_iters=7, seed=99)
        a = solve_pgd(inst, cfg).alpha
        b = solve_pgd(inst, cfg).alpha
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kappa", [2.0, 10.0, 100.0])
    def test_linear_convergence_rate(self, monkeypatch, kappa):
        # objective gap after m plain-PGD steps with eta = 1/lambda_max is
        # bounded by 10 (1 - lambda_min/lambda_max)^m times the initial gap
        rho = 10.0
        for seed in range(3):
            rng = np.random.default_rng(1000 + seed)
            n = 8
            delta = rotated_spectrum_delta(rng, np.linspace(1.0, kappa, n))
            inst = make_instance(delta, C=math.inf)
            star = solve_oracle(inst, tol=1e-13, max_sweeps=200000)
            cfg = SolverConfig(step_size=1.0 / kappa, max_iters=300, tol=1e-16, nesterov=False, seed=seed)
            gaps = self._objective_trace(monkeypatch, inst, cfg) - star.objective
            assert gaps.min() >= -1e-12
            rate = 1.0 - 1.0 / kappa
            bound = rho * gaps[0] * rate ** np.arange(len(gaps))
            mask = bound > 1e-10 * max(gaps[0], 1.0)
            assert np.all(gaps[mask] <= bound[mask])


def interior(alpha, C):
    """The interior 0 < alpha < C: a free set whose face steps these tests
    work out by hand. PGD's own face steps use the binding free set."""
    return (alpha > 0.0) & (alpha < C)


class TestNonfiniteDelta:
    @pytest.mark.parametrize("solve", [
        lambda inst: solve_pgd(inst, SolverConfig()), solve_inv, solve_oracle],
        ids=["pgd", "inv", "oracle"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_never_converged_and_silent(self, solve, value):
        # every per-anchor solver gives NaN alphas, reads unconverged, and
        # warns about nothing; the oracle once stopped after one sweep,
        # since max(0.0, nan) is 0.0, and read converged
        inst = random_instance(np.random.default_rng(0), n=5)
        inst.delta[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(inst)
        assert np.all(np.isnan(sol.alpha)) and not sol.converged


class TestFaceStep:
    def test_descends_only_along_convex_directions(self):
        # g(a) = 1/2 (a1^2 - a2^2) - a1 + a2 has one stationary point, the
        # saddle (1, 1), in the box: the face step to it is taken from
        # (1.5, 1), where it descends by 1/8, and refused from (1, 1.5),
        # where it would ascend by 1/8
        matvec, gather = _dense_operator(np.diag([1.0, -1.0]))
        b = np.array([[1.0, -1.0]])
        for start, taken in (([1.5, 1.0], True), ([1.0, 1.5], False)):
            alpha = np.array([start])
            rows, points = _face_steps(gather, alpha, matvec(alpha) - b, np.array([0]), interior(alpha, 2.0), 2.0)
            assert rows.tolist() == ([0] if taken else [])
            if taken:
                assert np.array_equal(points, [[1.0, 1.0]])

    def test_searches_back_into_the_box(self):
        # g(a) = 1/2 a'Da - b'a with D = [[6, -3], [-3, 2]] (positive
        # definite) and b = (-7, 7) on [0, 2]^2. At (1, 1) the gradient is
        # (10, -8) and the face minimizer (1, 1) + d = (7/3, 7) leaves the
        # box. Projected, t = 1 lands on the corner (2, 2), an ascent
        # (gradient's = 2); t = 1/2 gives (5/3, 2), where g falls from 1 to 0
        delta = np.array([[6.0, -3.0], [-3.0, 2.0]])
        matvec, gather = _dense_operator(delta)
        b = np.array([[-7.0, 7.0]])
        alpha = np.array([[1.0, 1.0]])
        rows, points = _face_steps(gather, alpha, matvec(alpha) - b, np.array([0]), interior(alpha, 2.0), 2.0)
        assert rows.tolist() == [0]
        assert points[0] == pytest.approx([5.0 / 3.0, 2.0], abs=1e-15)
        assert np.all((points >= 0.0) & (points <= 2.0))
        obj = [0.5 * a @ delta @ a - b[0] @ a for a in (alpha[0], points[0])]
        assert obj[0] == pytest.approx(1.0, abs=1e-14) and obj[1] == pytest.approx(0.0, abs=1e-14)

    def test_refuses_at_the_face_minimizer(self):
        # at the interior minimizer (1, 1) of D = [[2, 1], [1, 2]], b = (3, 3)
        # the gradient is 0, so no step length decreases the objective
        matvec, gather = _dense_operator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        alpha = np.array([[1.0, 1.0]])
        rows, _ = _face_steps(gather, alpha, matvec(alpha) - 3.0, np.array([0]), interior(alpha, 2.0), 2.0)
        assert rows.size == 0

    def test_binding_set_frees_a_coordinate_at_zero(self):
        # at (3/2, 0) with D = [[2, 1], [1, 2]] and b = (3, 3) the gradient
        # is (0, -3/2): the free coordinate is stationary, so the step on the
        # interior has no direction, but the coordinate at 0 is pulled into
        # the box and the binding set frees it. Its Newton step reaches the
        # minimizer (1, 1) on the free face in one step
        matvec, gather = _dense_operator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        alpha = np.array([[1.5, 0.0]])
        g = matvec(alpha) - 3.0
        assert np.array_equal(g, [[0.0, -1.5]])
        rows, _ = _face_steps(gather, alpha, g, np.array([0]), interior(alpha, 2.0), 2.0)
        assert rows.size == 0
        free = _binding_free(alpha, g, 2.0)
        assert free.tolist() == [[True, True]]
        rows, points = _face_steps(gather, alpha, g, np.array([0]), free, 2.0)
        assert rows.tolist() == [0]
        assert points[0] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_steps_descend_on_indefinite_duals(self):
        # every tanh D_k of this batch is indefinite; from a start with about
        # 13 free coordinates per row and the rest at the bounds, every row
        # the search takes stays in the box, keeps its own columns at 0 and
        # lowers the objective of its assembled D_k, and some of them were
        # projected back into the box (from starts with about 36 free
        # coordinates, every Newton direction here ascends)
        N, C = 32, 3.0
        rng, matvec, gather, deltas = test_loss.TestDualOperator._batch("tanh", N)
        neg_idx = negative_indices(N)
        alpha = _to_block(neg_idx, np.clip(rng.uniform(-10.0, 4.0, (N, 2 * N - 2)), 0.0, C))
        g = matvec(alpha) - _to_block(neg_idx, 2.0)
        free = interior(alpha, C)
        rows, points = _face_steps(gather, alpha, g, np.arange(N), free, C)
        assert rows.size > N // 2
        projected = 0
        for k, point in zip(rows, points):
            cols = neg_idx[k]
            assert np.all((point >= 0.0) & (point <= C))
            assert point[k] == 0.0 and point[N + k] == 0.0
            assert dual_objective(deltas[k], point[cols]) < dual_objective(deltas[k], alpha[k, cols])
            projected += np.any(free[k] & ((point == 0.0) | (point == C)))
        assert projected > 0

    def test_full_step_first_matches_the_ten_step_search(self):
        # trying t = 1 for every row and searching only the rows it fails
        # accepts the same rows at the same points as searching all ten
        # steps for every row, on the binding free sets of random starts
        # with coordinates at both bounds. Some rows need a shorter step
        # (tanh, C = inf) and some refuse every step (tanh)
        shorter = refused = 0
        for kernel in ("rbf", "tanh"):
            for C in (0.05, 3.0, math.inf):
                for N in (16, 32):
                    rng, matvec, gather, _ = test_loss.TestDualOperator._batch(kernel, N)
                    neg_idx = negative_indices(N)
                    high = C if math.isfinite(C) else 4.0
                    for _ in range(3):
                        alpha = _to_block(neg_idx, np.clip(rng.uniform(-high, 2.0 * high, (N, 2 * N - 2)), 0.0, C))
                        g = matvec(alpha) - _to_block(neg_idx, 2.0)
                        free = _binding_free(alpha, g, C)
                        rows = np.arange(N)
                        taken, points = _face_steps(gather, alpha, g, rows, free, C)
                        ref_rows, ref_points = face_search_reference(
                            gather, alpha, g, rows, free, C, svm_module._PAD_TO)
                        assert np.array_equal(taken, ref_rows)
                        assert np.array_equal(points, ref_points)
                        full, _ = face_search_reference(gather, alpha, g, rows, free, C,
                                                        svm_module._PAD_TO, steps=1)
                        shorter += taken.size - full.size
                        refused += N - taken.size
        assert shorter > 0 and refused > 0


class TestOrderingChain:
    @pytest.mark.parametrize("C", [1.0, 100.0, math.inf])
    def test_prop_ordering(self, C):
        for seed in range(25):
            rng = np.random.default_rng(500 + seed)
            inst = random_instance(rng, n=int(rng.integers(2, 24)), C=C)
            star = solve_oracle(inst, tol=1e-11)
            pgd = solve_pgd(inst, SolverConfig(max_iters=100, seed=seed))
            inv = solve_inv(inst)
            unconstrained = 2.0 * np.linalg.solve(inst.delta, np.ones(inst.n))
            g_free = dual_objective(inst.delta, unconstrained)
            assert g_free <= star.objective + 1e-10
            assert star.objective <= min(pgd.objective, inv.objective) + 1e-8


class TestSparsity:
    def test_far_negative_gets_zero_alpha(self):
        # one negative far (in RKHS) from the positive and from the other
        # negatives is not a support vector
        sigma_sq = 0.02
        spec = KernelSpec(kind="rbf", sigma_sq=sigma_sq)
        d = 8
        z_pos = np.zeros(d)
        r = np.sqrt(-2.0 * sigma_sq * np.log(0.6))  # k(z+, near_i) = 0.6
        near = np.eye(d) * r
        far = np.full((d, 1), 10.0)
        Z_neg = np.concatenate([near, far], axis=1)
        inst = build_instance(spec, z_pos, Z_neg, C=100.0, beta=0.1)
        sol = solve_oracle(inst, tol=1e-12)
        assert sol.alpha[-1] == 0.0
        assert np.all(sol.alpha[:-1] > 0.0)


class TestSpectralNorm:
    # solve_pgd's "auto" step is 1 / ||D||_2; every D it accepts is positive
    # definite, so that is 1 / lambda_max
    @staticmethod
    def _auto_steps(monkeypatch, *instances):
        steps = []
        real = svm_module._pgd_batched

        def recording(matvec, gather, b, C, step_sizes, *args):
            steps.append(step_sizes())
            return real(matvec, gather, b, C, step_sizes, *args)

        monkeypatch.setattr(svm_module, "_pgd_batched", recording)
        for inst in instances:
            solve_pgd(inst, SolverConfig(max_iters=5))
        return steps

    def test_matches_eigvalsh(self, monkeypatch):
        instances = [random_instance(np.random.default_rng(seed), n=20) for seed in range(5)]
        instances.append(make_instance(np.diag([2.0, 3.0, 1.0])))
        steps = self._auto_steps(monkeypatch, *instances)
        for inst, step in zip(instances, steps):
            exact = np.linalg.eigvalsh(inst.delta).max()
            assert step.shape == (1,)
            assert step[0] == pytest.approx(1.0 / exact, rel=1e-12)
        assert steps[-1][0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_nonfinite_matrix_gives_nan(self, monkeypatch):
        # instead of the LinAlgError of an eigenvalue solve, so that
        # solve_pgd returns NaN alphas
        inst = random_instance(np.random.default_rng(6), n=5)
        inst.delta[1, 3] = inst.delta[3, 1] = np.inf
        steps = self._auto_steps(monkeypatch, inst)
        assert steps[0].shape == (1,) and math.isnan(steps[0][0])


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(step_size=0.0)
        with pytest.raises(ValueError):
            SolverConfig(step_size="fast")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="step_size must be positive and finite"):
                SolverConfig(step_size=bad)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                SolverConfig(tol=bad)

    def test_alpha_x_property(self):
        inst = make_instance([[2.0, 1.0], [1.0, 2.0]])
        sol = solve_inv(inst)
        assert sol.alpha_x == pytest.approx(4.0 / 3.0, abs=1e-14)
