import math
import os

import numpy as np
import pytest

from mmcl import (Dataset, TrainConfig, augment_batch, batch_loss, forward, load_binary,
                  load_state, make_blobs, save_binary, save_csv, stream_rng)
from mmcl.cli import build_parser, main
from mmcl.config import build_train_config, parse_config_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_blobs_config(path, out_dir, **extra):
    lines = {
        "data.kind": "blobs", "data.classes": 2, "data.per_class": 16,
        "data.dim": 6, "data.separation": 6.0,
        "model.backbone_widths": "8,8", "model.head_hidden": 8, "model.out_dim": 4,
        "batch_size": 8, "epochs": 1, "loss": "mmcl_inv",
        "solver.max_iters": 50, "eval.probe_epochs": 20,
        "out.metrics": str(out_dir / "metrics.csv"),
        "out.checkpoint": str(out_dir / "model.ckpt"),
    }
    lines.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))


def parse_csv_blocks(text):
    """Split stdout into blank-line-separated CSV blocks of header+rows."""
    blocks = []
    for chunk in text.strip().split("\n\n"):
        rows = [line.split(",") for line in chunk.strip().splitlines()]
        blocks.append((rows[0], rows[1:]))
    return blocks


class TestTrainCommand:
    def test_one_epoch_writes_metrics_and_checkpoint(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path)
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,C,sigma_sq,loss,knn_acc,linear_acc"
        assert len(lines) == 2  # header + 1 epoch
        assert (tmp_path / "model.ckpt").exists()

    def test_set_override(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path)
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--set", "epochs=2")
        assert code == 0
        assert len((tmp_path / "metrics.csv").read_text().strip().splitlines()) == 3

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path)
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--set", "foo=1")
        assert code == 2
        assert "foo" in err

    @pytest.mark.parametrize("key,value", [("eval.test_fraction", 1.0), ("eval.probe_epochs", 0),
                                           ("eval.k", 0), ("eval.probe_lr", 0.0)])
    def test_unusable_eval_setting_exits_2_before_training(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, eval_every=1, **{key: value})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert key in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_threads_option_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_indefinite_inv_batch_exits_2(self, tmp_path, capsys):
        # tanh with gamma = 2 at beta = 0.1 makes the first batch's duals indefinite
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, **{"kernel.kind": "tanh", "kernel.gamma": 2.0})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: anchor ")
        assert "not positive definite" in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "train", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_identical_runs_byte_identical_metrics(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            write_blobs_config(cfg, d, epochs=2)
            code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
            assert code == 0
            outs.append((d / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSolveCommand:
    def test_scalar_instance_inv(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xx]\n1.0\n[k_xY]\n1.0\n[K_YY]\n1.0\n")
        # delta = 1 + 1 - 1 - 1 + beta = beta; use beta=2 -> alpha = 2/2 = 1
        code, out, _ = run_cli(capsys, "solve", "--instance", str(inst),
                               "--solver", "inv", "--C", "100", "--beta", "2.0")
        assert code == 0
        blocks = parse_csv_blocks(out)
        header, rows = blocks[0]
        assert header[0] == "solver"
        assert float(rows[0][header.index("objective")]) == pytest.approx(-1.0, abs=1e-12)
        alpha_header, alpha_rows = blocks[1]
        assert float(alpha_rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_and_inv_agree_on_interior(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        # embeddings route: 3 orthogonal negatives, rbf kernel
        inst.write_text(
            "[kernel]\nkind = rbf\nsigma_sq = 1.0\n"
            "[z_pos]\n1.0,0.0,0.0\n"
            "[Z_neg]\n0.0,1.0,0.0\n0.0,0.0,1.0\n-1.0,0.0,0.0\n")
        results = {}
        for solver in ("oracle", "inv"):
            code, out, _ = run_cli(capsys, "solve", "--instance", str(inst),
                                   "--solver", solver, "--C", "100", "--beta", "0.1")
            assert code == 0
            header, rows = parse_csv_blocks(out)[0]
            results[solver] = float(rows[0][header.index("objective")])
        assert results["oracle"] == pytest.approx(results["inv"], abs=1e-8)

    def test_pgd_zero_budget(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xY]\n0.0,0.0\n[K_YY]\n1.0,0.0\n0.0,1.0\n")
        code, out, _ = run_cli(capsys, "solve", "--instance", str(inst),
                               "--solver", "pgd", "--max-iters", "0", "--C", "0.5", "--beta", "0.1")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert rows[0][header.index("converged")] == "false"
        assert rows[0][header.index("iterations")] == "0"
        alphas = [float(r[1]) for r in parse_csv_blocks(out)[1][1]]
        assert all(0.0 <= a <= 0.5 for a in alphas)

    EMBEDDINGS = "[z_pos]\n1.0,0.0\n[Z_neg]\n0.0,1.0\n-1.0,0.0\n"

    def _solve_alphas(self, tmp_path, capsys, kernel_lines):
        inst = tmp_path / "inst.txt"
        inst.write_text("[kernel]\n" + kernel_lines + self.EMBEDDINGS)
        # beta = 5 keeps D positive definite for either tanh slope
        code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", "inv",
                                 "--beta", "5.0")
        alphas = [float(r[1]) for r in parse_csv_blocks(out)[1][1]] if code == 0 else None
        return code, alphas, err

    def test_kernel_section_reads_booleans_as_config_files_do(self, tmp_path, capsys):
        # tanh with the slope flipped to +gamma; "yes" and "true" must agree
        base = "kind = tanh\ngamma = 0.5\n"
        code_yes, yes, _ = self._solve_alphas(tmp_path, capsys, base + "positive_gamma = yes\n")
        code_true, true, _ = self._solve_alphas(tmp_path, capsys, base + "positive_gamma = true\n")
        code_no, no, _ = self._solve_alphas(tmp_path, capsys, base + "positive_gamma = no\n")
        assert code_yes == code_true == code_no == 0
        assert yes == true
        assert yes != no

    def test_kernel_section_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        code, _, err = self._solve_alphas(tmp_path, capsys, "kind = rbf\nsigmaa_sq = 0.3\n")
        assert code == 2
        assert "sigmaa_sq" in err

    def test_kernel_section_line_without_equals_exits_2(self, tmp_path, capsys):
        code, _, err = self._solve_alphas(tmp_path, capsys, "kind rbf\n")
        assert code == 2
        assert "kind rbf" in err

    def test_inv_on_indefinite_dual_exits_2(self, tmp_path, capsys):
        # tanh with gamma = 2 gives this instance an indefinite D at the default beta
        inst = tmp_path / "inst.txt"
        inst.write_text("[kernel]\nkind = tanh\ngamma = 2.0\n" + self.EMBEDDINGS)
        code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", "inv")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot factorize delta")

    @pytest.mark.parametrize("solver", ["pgd", "inv", "oracle"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--C", "-1", "C must be positive"), ("--beta", "-5", "beta must be nonnegative")])
    def test_raw_kernel_instance_rejects_bad_C_and_beta(self, tmp_path, capsys, solver,
                                                        flag, value, message):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xY]\n0.5,0.2\n[K_YY]\n1,0.1\n0.1,1\n")
        code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver,
                                 flag, value)
        assert code == 2 and out == ""
        assert message in err

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "bad.txt"
        inst.write_text("just some text\n")
        code, _, err = run_cli(capsys, "solve", "--instance", str(inst))
        assert code == 2

    def test_alpha_x_equals_alpha_sum(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xY]\n0.2,0.1,0.4\n[K_YY]\n1,0,0\n0,1,0\n0,0,1\n")
        code, out, _ = run_cli(capsys, "solve", "--instance", str(inst),
                               "--solver", "oracle", "--C", "10", "--beta", "0.1")
        assert code == 0
        blocks = parse_csv_blocks(out)
        header, rows = blocks[0]
        alpha_x = float(rows[0][header.index("alpha_x")])
        total = sum(float(r[1]) for r in blocks[1][1])
        assert alpha_x == pytest.approx(total, abs=1e-12)


class TestEvalCommand:
    def _trained(self, tmp_path, capsys, **extra):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, **extra)
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        ds = make_blobs(2, 16, 6, 6.0, seed=0)
        data_path = tmp_path / "data.mmd"
        save_binary(ds, data_path)
        return tmp_path / "model.ckpt", data_path

    def test_eval_prints_report(self, tmp_path, capsys):
        ckpt, data = self._trained(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                               "--k", "3", "--probe-epochs", "30")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert header == ["knn_accuracy", "linear_accuracy", "k", "epochs_probe"]
        knn = float(rows[0][0])
        assert 0.0 <= knn <= 1.0

    def test_k_clipping_warns_but_succeeds(self, tmp_path, capsys):
        ckpt, data = self._trained(tmp_path, capsys)
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                                 "--k", "5000", "--probe-epochs", "10")
        assert code == 0
        assert "clipp" in err.lower()

    def test_unlabeled_dataset_exits_2(self, tmp_path, capsys):
        ckpt, _ = self._trained(tmp_path, capsys)
        unlabeled = tmp_path / "unlabeled.csv"
        save_csv(Dataset(samples=np.random.default_rng(0).standard_normal((8, 6))), unlabeled)
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(unlabeled))
        assert code == 2

    @pytest.mark.parametrize("flag,value,key", [
        ("--test-fraction", "1", "eval.test_fraction"), ("--probe-epochs", "0", "eval.probe_epochs"),
        ("--k", "0", "eval.k"), ("--probe-lr", "0", "eval.probe_lr")])
    def test_unusable_eval_setting_exits_2(self, tmp_path, capsys, flag, value, key):
        ckpt, data = self._trained(tmp_path, capsys)
        code, out, err = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                                 flag, value)
        assert code == 2
        assert key in err and out == ""

    def test_truncated_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        _, data = self._trained(tmp_path, capsys)
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"MMCL1\x01")
        code, _, err = run_cli(capsys, "eval", "--checkpoint", str(bad), "--data", str(data))
        assert code == 2
        assert "short.ckpt" in err and "Traceback" not in err

    def test_repeat_runs_identical(self, tmp_path, capsys):
        ckpt, data = self._trained(tmp_path, capsys)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data),
                                   "--k", "3", "--probe-epochs", "30")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestInspectCommand:
    def _setup(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, epochs=3)
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        ds = make_blobs(2, 16, 6, 6.0, seed=0)
        data_path = tmp_path / "data.mmd"
        save_binary(ds, data_path)
        return cfg, tmp_path / "model.ckpt", data_path

    def test_alpha_sums_to_header_alpha_x(self, tmp_path, capsys):
        cfg, ckpt, data = self._setup(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "inspect", "--checkpoint", str(ckpt), "--data", str(data),
                               "--anchor", "3", "--batch-size", "8", "--config", str(cfg))
        assert code == 0
        blocks = parse_csv_blocks(out)
        header, rows = blocks[0]
        alpha_x = float(rows[0][header.index("alpha_x")])
        total = sum(float(r[2]) for r in blocks[1][1])
        assert alpha_x == pytest.approx(total, abs=1e-9)
        categories = {r[3] for r in blocks[1][1]}
        assert categories <= {"non-support", "support", "margin-violator"}

    def test_untrained_checkpoint_no_crash(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, epochs=1, lr=0.0)
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        ds = make_blobs(2, 16, 6, 6.0, seed=0)
        data_path = tmp_path / "d.mmd"
        save_binary(ds, data_path)
        code, out, _ = run_cli(capsys, "inspect", "--checkpoint", str(tmp_path / "model.ckpt"),
                               "--data", str(data_path), "--anchor", "0", "--batch-size", "8")
        assert code == 0

    def test_anchor_out_of_range_exits_2(self, tmp_path, capsys):
        cfg, ckpt, data = self._setup(tmp_path, capsys)
        code, _, err = run_cli(capsys, "inspect", "--checkpoint", str(ckpt), "--data", str(data),
                               "--anchor", "99999", "--batch-size", "8")
        assert code == 2

    @pytest.mark.parametrize("all_anchors", [False, True])
    def test_inv_on_indefinite_dual_exits_2(self, tmp_path, capsys, all_anchors):
        cfg, ckpt, data = self._setup(tmp_path, capsys)
        which = ["--all-anchors"] if all_anchors else ["--anchor", "0"]
        code, out, err = run_cli(capsys, "inspect", "--checkpoint", str(ckpt), "--data", str(data),
                                 *which, "--batch-size", "8", "--method", "inv",
                                 "--set", "kernel.kind=tanh", "--set", "kernel.gamma=2.0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "not positive definite" in err or "cannot factorize" in err

    def test_oracle_is_for_a_single_anchor_only(self, tmp_path, capsys):
        # batch_loss solves with the paper's pgd or inv; the exact oracle
        # solves one anchor's dual, so a whole batch asked of it exits 2
        cfg, ckpt, data = self._setup(tmp_path, capsys)
        tc = build_train_config(parse_config_file(cfg))
        with pytest.raises(ValueError, match="'pgd' or 'inv'"):
            batch_loss(np.eye(4)[:, :3], np.eye(4)[:, 1:], tc.kernel, tc.C, tc.beta, tc.solver,
                       method="oracle")
        common = ("inspect", "--checkpoint", str(ckpt), "--data", str(data), "--config", str(cfg),
                  "--batch-size", "4", "--method", "oracle")
        code, out, err = run_cli(capsys, *common, "--all-anchors")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'pgd' or 'inv'" in err
        code, out, _ = run_cli(capsys, *common, "--anchor", "0")
        assert code == 0 and out.startswith("anchor_index,")

    def test_all_anchors_export(self, tmp_path, capsys):
        cfg, ckpt, data = self._setup(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "inspect", "--checkpoint", str(ckpt), "--data", str(data),
                               "--all-anchors", "--batch-size", "4", "--config", str(cfg))
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert header == ["anchor_index", "negative_index", "alpha", "is_support", "is_margin_violator"]
        assert len(rows) == 4 * 6  # N anchors x 2(N-1) negatives

    def test_all_anchors_export_solves_two_augmented_views(self, tmp_path, capsys):
        # the exported alphas are batch_loss on the two views training would
        # build for the drawn batch, not on one unaugmented view used twice
        cfg, ckpt, data = self._setup(tmp_path, capsys)
        N, seed = 4, 5
        code, out, _ = run_cli(capsys, "inspect", "--checkpoint", str(ckpt), "--data", str(data),
                               "--all-anchors", "--batch-size", str(N), "--config", str(cfg),
                               "--seed", str(seed))
        assert code == 0
        _, rows = parse_csv_blocks(out)[0]
        exported = np.array([float(r[2]) for r in rows]).reshape(N, 2 * N - 2)

        tc = build_train_config(parse_config_file(cfg))
        params = load_state(ckpt).params
        dataset = load_binary(data)
        batch = dataset.samples[stream_rng(seed, "inspect-batch").choice(len(dataset), size=N,
                                                                          replace=False)]
        v1, v2 = (forward(params, augment_batch(tc.augmentation, batch,
                                                stream_rng(seed, "inspect-batch", v)).T)[0]
                  for v in (0, 1))
        assert tc.augmentation.noise_sigma > 0 and not np.allclose(v1, v2)
        _, _, _, alphas = batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver,
                                     fn_correction=tc.fn_correction, method="inv")
        assert np.array_equal(exported, alphas)


class TestBenchCommand:
    def test_one_row_per_size_and_variant(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--sizes", "2,4", "--reps", "1",
                               "--max-iters", "5", "--dim", "4")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert header == ["batch_size", "loss_variant", "ms_per_iter"]
        assert len(rows) == 2 * 3
        variants = {(r[0], r[1]) for r in rows}
        assert len(variants) == 6

    def test_max_iters_defaults_to_training_budget(self):
        args = build_parser().parse_args(["bench"])
        assert args.max_iters == TrainConfig().solver.max_iters == 1000

    def test_bad_sizes_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--sizes", "1,4")
        assert code == 2

    @pytest.mark.parametrize("flag,message", [("--reps", "--reps must be >= 1"),
                                              ("--dim", "--dim must be >= 1")])
    def test_zero_reps_or_dim_exit_2(self, capsys, flag, message):
        # --reps 0 had no time to take a median of; --dim 0 timed NaN embeddings
        code, out, err = run_cli(capsys, "bench", "--sizes", "2", "--max-iters", "5", flag, "0")
        assert code == 2
        assert out == "" and message in err
