import io
import struct
import tracemalloc

import numpy as np
import pytest

from mmcl import (AdamState, EncoderParams, KernelSpec, LossBatch, StaleTapeError,
                  adam_step, backward, forward, forward_features, init_adam,
                  init_params, load_params, mmcl_grad, mmcl_loss, nce_grad, nce_loss,
                  save_params)

from helpers import (LayerwiseAdamState, adam_step_layerwise, backward_layerwise,
                     backward_reference, forward_features_reference, forward_reference,
                     layerwise_flat, layerwise_zeros, rel_err, unit_columns)


def tiny_params(seed=0, in_dim=3, widths=(5, 4), head_hidden=4, out_dim=3):
    return init_params(in_dim, widths, head_hidden, out_dim, seed=seed)


def identity_single_layer():
    # no backbone, head = (identity, identity) in 2 dims
    eye = np.eye(2)
    return EncoderParams(layers=[], head=[(eye.copy(), np.zeros(2)), (eye.copy(), np.zeros(2))])


class TestForward:
    def test_identity_net_normalizes(self):
        params = identity_single_layer()
        X = np.array([[3.0], [4.0]])
        E, _ = forward(params, X)
        assert E[:, 0] == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_zero_input_nonzero_bias(self):
        eye = np.eye(2)
        params = EncoderParams(layers=[], head=[(eye.copy(), np.zeros(2)),
                                                (eye.copy(), np.array([0.0, 2.0]))])
        E, _ = forward(params, np.zeros((2, 1)))
        assert E[:, 0] == pytest.approx([0.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_norms(self, seed):
        params = tiny_params(seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, 10))
        E, _ = forward(params, X)
        assert np.abs(np.linalg.norm(E, axis=0) - 1.0).max() <= 1e-12

    def test_degenerate_input_stays_finite(self):
        # an input that zeroes the pre-normalization vector must not produce NaN
        eye = np.eye(2)
        params = EncoderParams(layers=[], head=[(eye.copy(), np.zeros(2)),
                                                (np.zeros((2, 2)), np.zeros(2))])
        E, _ = forward(params, np.ones((2, 3)))
        assert np.isfinite(E).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward(tiny_params(), np.zeros((4, 2)))

    def test_backbone_features_shape(self):
        params = tiny_params()
        F = forward_features(params, np.zeros((3, 7)))
        assert F.shape == (4, 7)
        assert np.all(F >= 0.0)  # relu output


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = tiny_params(1)
        X = np.random.default_rng(1).standard_normal((3, 4))
        E, tape = forward(params, X)
        grads = backward(params, tape, np.zeros_like(E))
        assert grads.shape == params.flat.shape and not grads.any()

    def test_normalization_jacobian_hand_value(self):
        # v = (3, 4), upstream (1, 0): ((I - uu')/5) d = (0.128, -0.096)
        params = identity_single_layer()
        E, tape = forward(params, np.array([[3.0], [4.0]]))
        grads = backward(params, tape, np.array([[1.0], [0.0]]))
        # the last layer's bias gradient is exactly the normalization-layer
        # gradient ((I - uu')/||v||) d
        expected = np.array([0.128, -0.096])
        assert params.layer_views(grads)[1][1] == pytest.approx(expected, abs=1e-12)

    def test_stale_tape_rejected(self):
        # a tape made before an Adam step, which updates the parameters in
        # place, is stale; so is the tape of other parameters
        params = tiny_params(2)
        X = np.zeros((3, 2))
        E, tape = forward(params, X)
        state = init_adam(params, lr=1e-3)
        adam_step(params, np.zeros_like(params.flat), state)
        with pytest.raises(StaleTapeError):
            backward(params, tape, np.zeros_like(E))
        E, tape = forward(params, X)
        backward(params, tape, np.zeros_like(E))
        with pytest.raises(StaleTapeError):
            backward(params.copy(), tape, np.zeros_like(E))

    def test_upstream_shape_checked(self):
        params = tiny_params(3)
        E, tape = forward(params, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            backward(params, tape, np.zeros((3, 99)))

    @pytest.mark.parametrize("seed", range(3))
    def test_mmcl_composed_gradient_matches_fd(self, seed):
        # full chain: inputs -> encoder -> max-margin loss, alpha fixed
        rng = np.random.default_rng(70 + seed)
        params = tiny_params(seed, in_dim=3, widths=(6, 5), head_hidden=5, out_dim=4)
        X = rng.standard_normal((3, 3))
        spec = KernelSpec(kind="rbf", sigma_sq=0.8)
        alpha = rng.uniform(0.0, 1.5, size=4)
        Z_neg_inputs = rng.standard_normal((3, 4))

        def full_loss(p):
            E, _ = forward(p, X)
            EN, _ = forward(p, Z_neg_inputs)
            lb = LossBatch(z=E[:, 0], z_pos=E[:, 1], Z_neg=EN, alpha=alpha)
            return mmcl_loss(lb, spec)

        # one pass over the stacked columns, as a training step takes it
        E, tape = forward(params, np.concatenate([X, Z_neg_inputs], axis=1))
        lb = LossBatch(z=E[:, 0], z_pos=E[:, 1], Z_neg=E[:, 3:], alpha=alpha)
        g = mmcl_grad(lb, spec)
        dE = np.zeros_like(E)
        dE[:, 0] = g.d_z
        dE[:, 1] = g.d_z_pos
        dE[:, 3:] = g.d_Z_neg
        grads = backward(params, tape, dE)
        self._check_param_grads_fd(params, grads, full_loss)

    @pytest.mark.parametrize("seed", range(3))
    def test_nce_composed_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(80 + seed)
        params = tiny_params(seed, in_dim=4, widths=(5,), head_hidden=4, out_dim=3)
        X = rng.standard_normal((4, 6))

        def full_loss(p):
            E, _ = forward(p, X)
            return nce_loss(E[:, 0], E[:, 1], E[:, 2:], 0.5)

        E, tape = forward(params, X)
        g = nce_grad(E[:, 0], E[:, 1], E[:, 2:], 0.5)
        dE = np.concatenate([g.d_z[:, None], g.d_z_pos[:, None], g.d_Z_neg], axis=1)
        grads = backward(params, tape, dE)
        self._check_param_grads_fd(params, grads, full_loss)

    @staticmethod
    def _check_param_grads_fd(params, grads, full_loss, h=1e-5, tol=1e-4):
        layers = params.all_layers()
        grads = params.layer_views(grads)
        for li, (W, b) in enumerate(layers):
            for arr_index, arr in enumerate((W, b)):
                fd = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = full_loss(params)
                    arr[idx] = orig - h
                    lm = full_loss(params)
                    arr[idx] = orig
                    fd[idx] = (lp - lm) / (2 * h)
                analytic = grads[li][arr_index]
                assert rel_err(analytic, fd) <= tol, f"layer {li} tensor {arr_index}"


class TestAgainstReference:
    """``forward`` and ``backward`` against the references of ``helpers``,
    which keep every pre-activation and make a fresh array at every step."""

    @staticmethod
    def _case(seed):
        # a column-major batch, as training passes view.T, and a zero column
        # that meets a zero first-layer bias: its pre-activations are
        # exactly 0, where the ReLU must pass no gradient
        params = init_params(6, (16, 8), 8, 4, seed=seed)
        params.layers[0][1][...] = 0.0
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 6)).T
        X[:, 0] = 0.0
        return params, X, rng.standard_normal((4, 40))

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_for_bit(self, seed):
        params, X, dE = self._case(seed)
        E, tape = forward(params, X)
        E_ref, tape_ref = forward_reference(params, X)
        assert np.array_equal(E, E_ref)
        assert len(tape.inputs) == len(tape_ref.inputs)
        for H, H_ref in zip(tape.inputs, tape_ref.inputs):
            assert np.array_equal(H, H_ref)
        assert np.array_equal(tape.pre_norm, tape_ref.pre_norm)
        assert np.array_equal(tape.norms, tape_ref.norms)
        grads = params.layer_views(backward(params, tape, dE))
        for (gW, gb), (rW, rb) in zip(grads, backward_reference(params, tape_ref, dE)):
            assert np.array_equal(gW, rW) and np.array_equal(gb, rb)
        assert np.array_equal(layerwise_flat(grads), layerwise_flat(backward_layerwise(params, tape, dE)))

    @pytest.mark.parametrize("seed", range(2))
    def test_features_bit_for_bit(self, seed):
        # 2048 columns of the default backbone, column-major as evaluation
        # passes samples.T, with a zero column against a zero first bias
        params = init_params(16, (64, 64), 64, 32, seed=seed)
        params.layers[0][1][...] = 0.0
        X = np.random.default_rng(seed).standard_normal((2048, 16)).T
        X[:, 0] = 0.0
        X_before = X.copy()
        F = forward_features(params, X)
        assert F.shape == (64, 2048)
        assert np.array_equal(F, forward_features_reference(params, X))
        assert np.array_equal(X, X_before) and not np.shares_memory(F, X)

    def test_caller_arrays_not_written(self):
        params, X, dE = self._case(3)
        X_before, dE_before = X.copy(), dE.copy()
        E, tape = forward(params, X)
        tape_before = [H.copy() for H in tape.inputs] + [tape.pre_norm.copy(), tape.norms.copy()]
        backward(params, tape, dE)
        assert np.array_equal(X, X_before) and np.array_equal(dE, dE_before)
        tape_after = tape.inputs + [tape.pre_norm, tape.norms]
        assert all(np.array_equal(a, b) for a, b in zip(tape_after, tape_before))

    def test_calls_return_distinct_arrays(self):
        params, X, dE = self._case(4)
        (E1, tape1), (E2, tape2) = forward(params, X), forward(params, X)
        made1 = [E1, tape1.pre_norm, *tape1.inputs[1:]]
        made2 = [E2, tape2.pre_norm, *tape2.inputs[1:]]
        assert not any(np.shares_memory(a, b) for a in made1 for b in made2 + [X])
        grads1, grads2 = backward(params, tape1, dE), backward(params, tape1, dE)
        assert not any(np.shares_memory(grads1, b) for b in (grads2, dE, params.flat))


def default_encoder(seed=0):
    # the encoder of TrainConfig() on 16-dimensional data: 11 488 parameters
    return init_params(16, (64, 64), 64, 32, seed=seed)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = tiny_params(5)
        before = params.flat.copy()
        state = init_adam(params, lr=1e-3)
        assert adam_step(params, np.zeros_like(params.flat), state) is None
        assert np.array_equal(params.flat, before)
        assert state.step == 1 and params.version == 1

    def test_single_scalar_first_step(self):
        # one parameter, gradient 1, fresh state: bias-corrected update is
        # -lr * 1 / (1 + eps) ~ -1e-3
        params = EncoderParams(layers=[], head=[(np.array([[1.0]]), np.zeros(1)),
                                                (np.array([[2.0]]), np.zeros(1))])
        state = init_adam(params, lr=1e-3)
        grads = np.array([1.0, 0.0, 0.0, 0.0])  # head[0] W, b, head[1] W, b
        adam_step(params, grads, state)
        update = params.head[0][0][0, 0] - 1.0
        assert update == pytest.approx(-1e-3, rel=1e-7)

    def test_deterministic_repeat(self):
        # two copies of the parameters, each with a fresh state, take the
        # same step to the same bits
        params = tiny_params(6)
        grads = np.random.default_rng(6).standard_normal(params.flat.size)
        a_params, b_params = params.copy(), params.copy()
        a_state, b_state = init_adam(a_params, lr=1e-3), init_adam(b_params, lr=1e-3)
        adam_step(a_params, grads, a_state)
        adam_step(b_params, grads, b_state)
        assert np.array_equal(a_params.flat, b_params.flat)
        assert np.array_equal(a_state.m, b_state.m) and np.array_equal(a_state.v, b_state.v)
        assert a_state.step == b_state.step == 1
        assert not np.array_equal(a_params.flat, params.flat)

    def test_matches_layerwise_reference(self):
        # ten steps of random gradients: parameters and both moments equal
        # those of the layer-wise step of tests/helpers.py, bit for bit
        params = default_encoder(1)
        ref_params = params.copy()
        state = init_adam(params, lr=1e-2)
        ref_state = LayerwiseAdamState(m=layerwise_zeros(params), v=layerwise_zeros(params), lr=1e-2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            grads = rng.standard_normal(params.flat.size) * rng.uniform(0.0, 3.0)
            adam_step(params, grads, state)
            ref_params, ref_state = adam_step_layerwise(ref_params, params.layer_views(grads), ref_state)
        assert np.array_equal(params.flat, ref_params.flat)
        assert np.array_equal(state.m, layerwise_flat(ref_state.m))
        assert np.array_equal(state.v, layerwise_flat(ref_state.v))
        assert state.step == ref_state.step == params.version == 10

    def test_step_makes_no_parameter_sized_array(self):
        # the update runs in place through the state's two work vectors:
        # one step allocates less than one parameter vector (92 KB), which
        # the layer-wise step exceeds
        params = default_encoder()
        assert params.flat.size == 11488
        grads = np.random.default_rng(2).standard_normal(params.flat.size)
        state = init_adam(params, lr=1e-3)
        ref_state = LayerwiseAdamState(m=layerwise_zeros(params), v=layerwise_zeros(params), lr=1e-3)
        adam_step(params, grads, state)

        def peak(step):
            tracemalloc.start()
            try:
                step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = params.flat.nbytes
        assert peak(lambda: adam_step(params, grads, state)) < bound
        assert peak(lambda: adam_step_layerwise(params, params.layer_views(grads), ref_state)) > bound

    def test_gradient_shape_checked(self):
        params = tiny_params(8)
        with pytest.raises(ValueError, match="gradient of shape"):
            adam_step(params, np.zeros(params.flat.size - 1), init_adam(params, lr=1e-3))


class TestFlatLayout:
    def test_layers_are_views_in_checkpoint_order(self):
        params = tiny_params(9)
        expected = np.concatenate([a.ravel() for W, b in params.all_layers() for a in (W, b)])
        assert np.array_equal(params.flat, expected)
        assert all(np.shares_memory(a, params.flat) for W, b in params.all_layers() for a in (W, b))
        params.head[1][1][0] = 7.0
        assert params.flat[-params.head[1][1].size] == 7.0

    def test_pairs_are_copied_and_copy_is_independent(self):
        W, b = np.eye(2), np.zeros(2)
        params = EncoderParams(layers=[], head=[(W, b), (W, b)])
        assert not np.shares_memory(params.flat, W)
        twin = params.copy()
        twin.flat[0] = 5.0
        assert params.head[0][0][0, 0] == 1.0 and twin.head[0][0][0, 0] == 5.0
        assert twin.shapes == params.shapes and len(twin.layers) == len(params.layers)


class TestCheckpoint:
    def test_round_trip_bit_identical(self):
        params = tiny_params(7, in_dim=5, widths=(8, 6), head_hidden=6, out_dim=4)
        buf = io.BytesIO()
        save_params(params, buf)
        buf.seek(0)
        loaded = load_params(buf)
        assert len(loaded.layers) == len(params.layers)
        for (W0, b0), (W1, b1) in zip(params.all_layers(), loaded.all_layers()):
            assert np.array_equal(W0, W1)
            assert np.array_equal(b0, b1)

    def test_bad_magic_rejected(self):
        buf = io.BytesIO(b"NOPE!")
        with pytest.raises(ValueError, match="magic"):
            load_params(buf)

    def test_truncated_checkpoint_names_file(self, tmp_path):
        params = tiny_params(7, in_dim=5, widths=(8, 6), head_hidden=6, out_dim=4)
        p = tmp_path / "m.ckpt"
        with open(p, "wb") as fh:
            save_params(params, fh)
        full = p.read_bytes()
        for data in (b"MMCL1\x01", full[:21], full[:40], full[:-1]):
            p.write_bytes(data)
            with open(p, "rb") as fh, pytest.raises(ValueError, match="m.ckpt: truncated"):
                load_params(fh)

    @pytest.mark.parametrize("counts,field", [
        ((-2, 0), "backbone layer count -2, expected >= 0"),
        ((-1, 2), "backbone layer count -1, expected >= 0"),
        ((1, 0), "head layer count 0, expected 2"), ((0, 3), "head layer count 3, expected 2")],
        ids=["backbone-2", "backbone-1", "head-0", "head-3"])
    def test_bad_layer_count_names_file_and_field(self, tmp_path, counts, field):
        # the 21-byte header of counts (-2, 0) loaded as an encoder with no
        # layers, since -2 backbone and 0 head layers read no shape
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"MMCL1" + struct.pack("<qq", *counts))
        with open(p, "rb") as fh, pytest.raises(ValueError, match=rf"m.ckpt: corrupt: {field}$"):
            load_params(fh)

    def test_negative_layer_shape_rejected(self):
        # (-2) x (-3) weights and their bias would count 4 values
        data = b"MMCL1" + struct.pack("<qqqqqq", 0, 2, -2, -3, 1, -2) + bytes(8 * 16)
        with pytest.raises(ValueError, match="corrupt: negative layer shape"):
            load_params(io.BytesIO(data))


class TestParamsValidation:
    def test_chained_shapes_enforced(self):
        with pytest.raises(ValueError):
            EncoderParams(layers=[(np.zeros((4, 3)), np.zeros(4))],
                          head=[(np.zeros((5, 99)), np.zeros(5)), (np.zeros((2, 5)), np.zeros(2))])

    def test_head_must_have_two_layers(self):
        with pytest.raises(ValueError):
            EncoderParams(layers=[], head=[(np.eye(2), np.zeros(2))])
