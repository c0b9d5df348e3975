import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmcl import (Dataset, KernelSpec, LossBatch, SolverConfig, TrainConfig,
                  TrainingAbort, adam_step, apply_schedules, backward, batch_loss, forward,
                  init_adam, init_state, load_state, make_blobs, mmcl_loss, run_epoch, save_state,
                  stream_rng, train)
from mmcl import encoder, training
from mmcl.data import augment_batch
from mmcl.loss import nce_batch_loss

from helpers import layerwise_flat, rel_err, train_layerwise, write_state_layerwise


def small_config(**kw):
    base = dict(
        batch_size=8, epochs=2, lr=1e-3, loss="mmcl_inv",
        kernel=KernelSpec(kind="rbf", sigma_sq=1.0), C=100.0, beta=0.1,
        solver=SolverConfig(max_iters=100),
        backbone_widths=(16, 16), head_hidden=16, out_dim=8, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_blobs(seed=0):
    return make_blobs(num_classes=2, per_class=24, d=6, separation=6.0, seed=seed)


class TestApplySchedules:
    def test_before_switch(self):
        cfg = small_config(C=math.inf, schedules=[(25, "C", 10.0)])
        C, _ = apply_schedules(cfg, 24)
        assert C == math.inf

    def test_at_switch(self):
        cfg = small_config(C=math.inf, schedules=[(25, "C", 10.0)])
        C, _ = apply_schedules(cfg, 25)
        assert C == 10.0

    def test_bandwidth_phases(self):
        cfg = small_config(kernel=KernelSpec(kind="rbf", sigma_sq=0.02),
                           schedules=[(75, "sigma_sq", 0.2), (125, "sigma_sq", 2.0)])
        assert apply_schedules(cfg, 0)[1].sigma_sq == 0.02
        assert apply_schedules(cfg, 74)[1].sigma_sq == 0.02
        assert apply_schedules(cfg, 75)[1].sigma_sq == 0.2
        assert apply_schedules(cfg, 124)[1].sigma_sq == 0.2
        assert apply_schedules(cfg, 125)[1].sigma_sq == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(schedules=[(10, "C", 1.0), (5, "C", 2.0)])
        with pytest.raises(ValueError):
            small_config(schedules=[(10, "lr", 1.0)])
        with pytest.raises(ValueError):
            apply_schedules(small_config(), -1)


SCIPY_LINALG_PROBE = """
import sys
from mmcl import KernelSpec, SolverConfig, TrainConfig, batch_loss, init_state, make_blobs, run_epoch
cfg = TrainConfig(batch_size=8, loss="nce", backbone_widths=(16,), head_hidden=16, out_dim=8)
ds = make_blobs(num_classes=2, per_class=24, d=6, separation=6.0, seed=0)
run_epoch(init_state(cfg, ds.dim), cfg, ds)
print("scipy.linalg" in sys.modules)
E = ds.samples[:16].T
batch_loss(E[:, :8], E[:, 8:], KernelSpec(), 100.0, 0.1, SolverConfig(), method="inv")
print("scipy.linalg" in sys.modules)
"""


def test_scipy_linalg_loads_only_when_a_matrix_is_factored():
    # InfoNCE factors no matrix, so importing mmcl and training with it
    # does not load scipy.linalg (about 0.1 s and 27 MB); an inv batch does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_LINALG_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


class TestRunEpoch:
    def test_default_augmentation_gives_distinct_views(self):
        # the two views of a sample must differ, or every positive pair is trivial
        cfg, rows = TrainConfig(), small_blobs().samples[:4]
        v1 = augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", 0, 0, 0))
        v2 = augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", 0, 0, 1))
        assert not np.allclose(v1, v2)

    def test_zero_lr_keeps_parameters(self):
        cfg = small_config(lr=0.0)
        ds = small_blobs()
        state = init_state(cfg, ds.dim)
        before = [(W.copy(), b.copy()) for W, b in state.params.all_layers()]
        state, loss_value = run_epoch(state, cfg, ds)
        assert math.isfinite(loss_value)
        for (W0, b0), (W1, b1) in zip(before, state.params.all_layers()):
            assert np.array_equal(W0, W1)
            assert np.array_equal(b0, b1)

    def test_deterministic_epoch(self):
        cfg = small_config()
        ds = small_blobs()
        s1, l1 = run_epoch(init_state(cfg, ds.dim), cfg, ds)
        s2, l2 = run_epoch(init_state(cfg, ds.dim), cfg, ds)
        assert l1 == l2
        for (Wa, ba), (Wb, bb) in zip(s1.params.all_layers(), s2.params.all_layers()):
            assert np.array_equal(Wa, Wb)

    def test_partial_batch_dropped(self):
        cfg = small_config(batch_size=9, epochs=1)  # 48 samples -> 5 full batches
        ds = small_blobs()
        state, _ = run_epoch(init_state(cfg, ds.dim), cfg, ds)
        assert state.adam.step == 5

    @pytest.mark.parametrize("loss_kind", ["mmcl_pgd", "mmcl_inv", "nce"])
    def test_one_pass_matches_per_view_reference(self, loss_kind, monkeypatch):
        # one run_epoch batch against two forwards and two backwards, one
        # per view, summed, then Adam: the embeddings the loss sees are the
        # same bits, and only the order of the gradient sums differs
        cfg = small_config(loss=loss_kind, lr=1e-2)
        ds = Dataset(small_blobs().samples[:cfg.batch_size])
        state = init_state(cfg, ds.dim)
        seen = []
        for name in ("batch_loss", "nce_batch_loss"):
            real = getattr(training, name)

            def recording(e1, e2, *args, real=real, **kwargs):
                seen.append((e1.copy(), e2.copy()))
                return real(e1, e2, *args, **kwargs)

            monkeypatch.setattr(training, name, recording)

        rows = ds.samples[stream_rng(cfg.seed, "shuffle", 0).permutation(len(ds))]
        v1, v2 = (augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", 0, 0, v)).T
                  for v in (0, 1))
        e1, tape1 = forward(state.params, v1)
        e2, tape2 = forward(state.params, v2)
        if loss_kind == "nce":
            _, g1, g2 = nce_batch_loss(e1, e2, cfg.temperature)
        else:
            _, g1, g2, _ = batch_loss(e1, e2, cfg.kernel, cfg.C, cfg.beta, cfg.solver,
                                      method=loss_kind.removeprefix("mmcl_"))
        grads = backward(state.params, tape1, g1) + backward(state.params, tape2, g2)
        expected = state.params.copy()
        adam_step(expected, grads, init_adam(expected, lr=cfg.lr))

        state, _ = run_epoch(state, cfg, ds)
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], e1) and np.array_equal(seen[0][1], e2)
        for (W, b), (W_ref, b_ref) in zip(state.params.all_layers(), expected.all_layers()):
            assert rel_err(W, W_ref) <= 1e-12 and rel_err(b, b_ref) <= 1e-12

    def test_one_encoder_pass_per_batch(self, monkeypatch):
        # each batch makes one forward, one backward and then one Adam step,
        # the last call of the step (the boundary that perfbench hooks)
        cfg = small_config()
        ds = small_blobs()
        calls = []
        for name in ("forward", "backward", "adam_step"):
            real = getattr(encoder, name)

            def recording(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(encoder, name, recording)
        state, _ = run_epoch(init_state(cfg, ds.dim), cfg, ds)
        batches = len(ds) // cfg.batch_size
        assert state.adam.step == batches
        assert calls == ["forward", "backward", "adam_step"] * batches

    def test_small_dataset_rejected(self):
        cfg = small_config(batch_size=64)
        ds = small_blobs()
        with pytest.raises(ValueError, match="batch_size"):
            run_epoch(init_state(cfg, ds.dim), cfg, ds)

    def test_abort_on_nonfinite_loss(self):
        # a divergent learning rate overflows the encoder after the first
        # Adam step (a RuntimeWarning), so the rbf duals of batch 1 see
        # non-finite embeddings and the loss is NaN
        cfg = small_config(loss="mmcl_pgd", lr=1e300)
        ds = small_blobs()
        with pytest.raises(TrainingAbort) as info, pytest.warns(RuntimeWarning):
            run_epoch(init_state(cfg, ds.dim), cfg, ds)
        diag = info.value.diagnostics
        assert set(diag) == {"epoch", "batch_index", "loss", "nonfinite_columns_view1",
                             "nonfinite_columns_view2", "alpha_min", "alpha_max", "alpha_mean"}
        assert diag["batch_index"] == 1
        assert diag["nonfinite_columns_view1"] > 0 and diag["nonfinite_columns_view2"] > 0


class TestTrainLoop:
    def test_metric_history_shape(self):
        cfg = small_config(epochs=3)
        state = train(cfg, small_blobs())
        assert len(state.history) == 3
        epochs = [row[0] for row in state.history]
        assert epochs == [0, 1, 2]

    def test_eval_rows_when_scheduled(self):
        cfg = small_config(epochs=4, eval_every=2, eval_k=5, probe_epochs=50)
        state = train(cfg, small_blobs())
        knn_cells = [row[4] for row in state.history]
        assert math.isnan(knn_cells[0]) and math.isnan(knn_cells[2])
        assert 0.0 <= knn_cells[1] <= 1.0 and 0.0 <= knn_cells[3] <= 1.0

    def test_split_without_training_samples_fails_before_training(self):
        # 0.99 of 48 samples rounds to all 48 for the held-out split
        rows = []
        with pytest.raises(ValueError, match="eval.test_fraction"):
            train(small_config(eval_every=1, test_fraction=0.99), small_blobs(), on_epoch=rows.append)
        assert rows == []

    def test_probe_split_of_one_class_fails_before_training(self, monkeypatch):
        # 0.97 of 48 samples leaves the probe 1 train sample, so 1 class of
        # the dataset's 2; the class count used to be taken over the whole
        # dataset, so an epoch trained before the probe refused the split
        epochs = []
        monkeypatch.setattr(training, "run_epoch",
                            lambda *args: epochs.append(args) or run_epoch(*args))
        with pytest.raises(ValueError, match=r"eval.test_fraction = 0.97 holds 1 label class"):
            train(small_config(eval_every=1, test_fraction=0.97), small_blobs())
        assert epochs == []

    def test_resume_matches_uninterrupted(self, tmp_path):
        ds = small_blobs()
        full = train(small_config(epochs=4), ds)

        half = train(small_config(epochs=2), ds)
        path = tmp_path / "state.ckpt"
        save_state(half, path)
        resumed = train(small_config(epochs=4), ds, state=load_state(path))

        assert resumed.epoch == full.epoch == 4
        for (Wa, ba), (Wb, bb) in zip(full.params.all_layers(), resumed.params.all_layers()):
            assert np.array_equal(Wa, Wb)
            assert np.array_equal(ba, bb)
        assert len(full.history) == len(resumed.history)
        for row_a, row_b in zip(full.history, resumed.history):
            for va, vb in zip(row_a, row_b):
                assert va == vb or (math.isnan(va) and math.isnan(vb))
        assert np.array_equal(full.adam.m, resumed.adam.m)
        assert np.array_equal(full.adam.v, resumed.adam.v)

    @pytest.mark.parametrize("loss_kind", ["mmcl_pgd", "mmcl_inv", "nce"])
    def test_flat_step_matches_layerwise_reference(self, loss_kind, monkeypatch, tmp_path):
        # two epochs with the flat in-place Adam step against the layer-wise
        # backward and step of tests/helpers.py: parameters, both moments
        # and the state checkpoint's bytes are identical, and a run resumed
        # from that checkpoint continues bit for bit
        cfg, ds = small_config(loss=loss_kind, lr=1e-2), small_blobs()
        flat = train(cfg, ds)
        ref = init_state(cfg, ds.dim)
        ref.adam = train_layerwise(monkeypatch, cfg, ds, ref)
        assert np.array_equal(flat.params.flat, ref.params.flat)
        assert np.array_equal(flat.adam.m, layerwise_flat(ref.adam.m))
        assert np.array_equal(flat.adam.v, layerwise_flat(ref.adam.v))
        assert flat.adam.step == ref.adam.step

        path = tmp_path / "state.ckpt"
        save_state(flat, path)
        expected = io.BytesIO()
        write_state_layerwise(ref, expected)
        assert path.read_bytes() == expected.getvalue()

        longer = small_config(loss=loss_kind, lr=1e-2, epochs=3)
        resumed, full = train(longer, ds, state=load_state(path)), train(longer, ds)
        assert np.array_equal(resumed.params.flat, full.params.flat)
        assert np.array_equal(resumed.adam.m, full.adam.m)
        assert np.array_equal(resumed.adam.v, full.adam.v)

    @pytest.mark.parametrize("key,value", [("seed", 1), ("lr", 2e-3)])
    def test_resume_under_another_setting_raises(self, tmp_path, key, value):
        # the seed derives every stream and Adam keeps the lr it was built
        # with: a resumed run under another value would match neither run
        ds = small_blobs()
        path = tmp_path / "state.ckpt"
        save_state(train(small_config(epochs=1), ds), path)
        with pytest.raises(ValueError, match=rf"state has {key} = .*the config {key} = "):
            train(small_config(epochs=2, **{key: value}), ds, state=load_state(path))

    def test_truncated_state_names_file(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_state(train(small_config(epochs=1), small_blobs()), path)
        full = path.read_bytes()
        for cut in (8, 30, 70, len(full) // 2, len(full) - 1):
            path.write_bytes(full[:cut])
            with pytest.raises(ValueError, match="state.ckpt: truncated"):
                load_state(path)

    def test_sampling_streams_independent_of_loss_kind(self):
        # swapping the loss must leave shuffling and augmentation untouched:
        # recompute the nce epoch loss from the streams directly
        ds = small_blobs()
        cfg = small_config(loss="nce", lr=0.0, epochs=1)
        state = train(cfg, ds)
        recorded = state.history[0][3]

        params = init_state(cfg, ds.dim).params
        order = stream_rng(cfg.seed, "shuffle", 0).permutation(len(ds))
        totals = []
        for b in range(len(ds) // cfg.batch_size):
            rows = ds.samples[order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            v1 = augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", 0, b, 0)).T
            v2 = augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", 0, b, 1)).T
            e1, _ = forward(params, v1)
            e2, _ = forward(params, v2)
            totals.append(nce_batch_loss(e1, e2, cfg.temperature)[0])
        assert recorded == pytest.approx(float(np.mean(totals)), abs=0.0)

    def test_loss_finite_over_run(self):
        for loss_kind in ("mmcl_inv", "mmcl_pgd", "nce"):
            cfg = small_config(loss=loss_kind, epochs=2,
                               solver=SolverConfig(max_iters=50))
            state = train(cfg, small_blobs())
            assert all(math.isfinite(row[3]) for row in state.history)


def fixed_alpha_epoch_losses(cfg, ds, epoch, start, end):
    """Loss summed over one epoch's batches at the ``start`` and ``end``
    parameters, with every anchor's alpha solved (inv) at ``start`` and held
    fixed; each anchor is scored through the per-anchor ``mmcl_loss``."""
    C, spec = apply_schedules(cfg, epoch)
    N = cfg.batch_size
    order = stream_rng(cfg.seed, "shuffle", epoch).permutation(len(ds))
    before = after = 0.0
    for b in range(len(ds) // N):
        rows = ds.samples[order[b * N:(b + 1) * N]]
        v1 = augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", epoch, b, 0)).T
        v2 = augment_batch(cfg.augmentation, rows, stream_rng(cfg.seed, "aug", epoch, b, 1)).T
        e1, _ = forward(start, v1)
        e2, _ = forward(start, v2)
        _, _, _, alphas = batch_loss(e1, e2, spec, C, cfg.beta, cfg.solver,
                                     fn_correction=cfg.fn_correction, method="inv")

        def scored(params):
            e1, _ = forward(params, v1)
            e2, _ = forward(params, v2)
            E = np.concatenate([e1, e2], axis=1)
            total = 0.0
            for k in range(N):
                cols = [j for j in range(N) if j != k] + [N + j for j in range(N) if j != k]
                total += mmcl_loss(LossBatch(z=e2[:, k], z_pos=e1[:, k], Z_neg=E[:, cols],
                                             alpha=alphas[k]), spec)
            return total

        before += scored(start)
        after += scored(end)
    return before, after


class TestBlobsDescent:
    def test_mean_loss_strictly_decreases_early(self):
        # Training differentiates alpha' (k(Z-, z) - k(z+, z) 1) with alpha
        # held constant, so each epoch must lower that quantity: solve alpha
        # at the epoch's starting parameters, then score the epoch's batches
        # before and after its Adam steps with alpha fixed. The recorded
        # epoch loss is not monotone: alpha is re-solved per batch, and
        # alpha_x = alpha' 1 shrinks as the margin grows, so the recorded
        # value rises toward zero while training works. With default
        # hyperparameters, every one of the first 20 epochs on wide blobs
        # must descend for at least 4 of 5 seeds.
        ds = make_blobs(num_classes=4, per_class=128, d=16, separation=6.0, seed=0)
        good = 0
        for seed in range(5):
            cfg = TrainConfig(loss="mmcl_inv", epochs=20, seed=seed)
            state = init_state(cfg, ds.dim)
            descended = True
            while state.epoch < cfg.epochs:
                epoch, start = state.epoch, state.params.copy()
                state, _ = run_epoch(state, cfg, ds)
                before, after = fixed_alpha_epoch_losses(cfg, ds, epoch, start, state.params)
                descended = descended and after < before
            if descended:
                good += 1
        assert good >= 4
