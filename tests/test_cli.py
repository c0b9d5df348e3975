import math
import os

import numpy as np
import pytest

from mmcl import (Dataset, TrainConfig, augment_batch, batch_loss, forward, load_state,
                  make_blobs, save_csv, save_state, stream_rng)
from mmcl import cli
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

    @pytest.mark.parametrize("key,value", [
        ("eval.test_fraction", 1.0), ("eval.probe_epochs", 0), ("eval.k", 0), ("eval.probe_lr", 0.0),
        ("C", -1.0), ("beta", -1.0), ("temperature", 0.0), ("eval_every", -1), ("lr", -1.0),
        ("model.backbone_widths", "8,0"), ("model.head_hidden", 0), ("model.out_dim", 0),
        ("schedules", "2:C:-1"), ("schedules", "2:sigma_sq:-1"), ("beta", "nan"),
        ("kernel.sigma_sq", "inf"), ("schedules", "2:sigma_sq:inf"), ("batch_size", 64),
        ("eval.probe_lr", "inf"), ("lr", "inf"), ("temperature", "inf"), ("seed", -1),
        ("seed", 2 ** 63)])
    def test_unusable_eval_setting_exits_2_before_training(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, **{"eval_every": 1, "epochs": 3, key: value})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert key in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_infinite_probe_lr_exits_2_on_default_config(self, tmp_path, capsys):
        # a probe fitted at an infinite rate has NaN weights; the run stops
        # before its first epoch, naming the key, and writes nothing
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        code, out, err = run_cli(capsys, "train", "--config", str(cfg),
                                 "--set", "eval_every=1", "--set", "eval.probe_lr=inf",
                                 "--set", "eval.probe_epochs=20", "--set", "epochs=2",
                                 "--set", f"out.metrics={tmp_path / 'metrics.csv'}",
                                 "--set", f"out.checkpoint={tmp_path / 'model.ckpt'}")
        assert code == 2
        assert "eval.probe_lr must be positive and finite, got inf" in err
        assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("settings,message", [
        (["aug.noise_sigma=nan"], "aug.noise_sigma must be nonnegative and finite, got nan"),
        (["aug.noise_sigma=inf"], "aug.noise_sigma must be nonnegative and finite, got inf"),
        (["aug.scale_hi=inf"], "aug.scale_hi must be finite and >= aug.scale_lo = 1.0, got inf"),
        (["aug.scale_lo=inf", "aug.scale_hi=inf"], "aug.scale_lo must be positive and finite, got inf"),
        (["data.kind=moons", "data.noise=nan"], "data.noise must be nonnegative and finite, got nan"),
        (["data.kind=moons", "data.noise=inf"], "data.noise must be nonnegative and finite, got inf"),
        (["data.separation=inf"], "data.separation must be positive and finite, got inf"),
        (["data.seed=-1"], "data.seed must be >= 0, got -1"),
        (["data.kind=moons", "data.seed=-1"], "data.seed must be >= 0, got -1"),
        (["seed=-1"], "seed must be in [0, 2^63), got -1"),
        ([f"seed={2 ** 63}"], f"seed must be in [0, 2^63), got {2 ** 63}")],
        ids=["noise_sigma-nan", "noise_sigma-inf", "scale_hi-inf", "scale_lo-inf",
             "moons-noise-nan", "moons-noise-inf", "blobs-separation-inf", "blobs-seed-negative",
             "moons-seed-negative", "seed-negative", "seed-past-int64"])
    def test_non_finite_setting_exits_2_on_default_config(self, tmp_path, capsys, settings, message):
        # these used to train into a non-finite loss (exit 1), overflow in
        # the augmentation's scale draw (a traceback), stop at the generic
        # "samples contain NaN or Inf" or at numpy's "expected non-negative
        # integer" after writing metrics.csv, or train the whole run and
        # fail to store a seed past int64 in the checkpoint (a traceback);
        # each now exits 2 before the first epoch, naming its key, and
        # writes nothing
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        sets = [arg for setting in settings for arg in ("--set", setting)]
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), *sets,
                               "--set", f"out.metrics={tmp_path / 'metrics.csv'}",
                               "--set", f"out.checkpoint={tmp_path / 'model.ckpt'}")
        assert code == 2
        assert message in err
        assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.ckpt").exists()

    def test_one_class_dataset_with_evaluation_exits_2_before_training(self, tmp_path, capsys):
        # the linear probe needs 2 classes: the run stops before its first
        # epoch, naming the class count, and writes no metrics or checkpoint
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, **{"data.classes": 1, "eval_every": 1, "epochs": 2})
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 2
        assert "1 label class" in err
        assert not (tmp_path / "metrics.csv").exists()
        assert not (tmp_path / "model.ckpt").exists()
        # without evaluation the same data trains
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--set", "eval_every=0")
        assert code == 0 and (tmp_path / "model.ckpt").exists()

    def test_probe_split_of_one_class_exits_2_before_training(self, tmp_path, capsys):
        # the default 512 samples under eval.test_fraction = 0.998 leave the
        # probe one train sample, so one class, although the dataset has 4:
        # the run used to train a whole epoch, then exit 2 with the probe's
        # "needs at least 2 classes", leaving a header-only metrics.csv
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        code, out, err = run_cli(capsys, "train", "--config", str(cfg), "--set", "eval_every=1",
                                 "--set", "eval.test_fraction=0.998",
                                 "--set", f"out.metrics={tmp_path / 'metrics.csv'}",
                                 "--set", f"out.checkpoint={tmp_path / 'model.ckpt'}")
        assert code == 2 and out == ""
        assert "eval.test_fraction = 0.998 holds 1 label class" in err
        assert not (tmp_path / "metrics.csv").exists() and not (tmp_path / "model.ckpt").exists()

    def test_threads_option_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_indefinite_inv_batch_exits_2(self, tmp_path, capsys):
        # tanh with gamma = 2 at beta = 0.1 makes the first batch's duals indefinite
        self._check_indefinite_batch_exits_2(tmp_path, capsys, "mmcl_inv")

    def test_indefinite_pgd_batch_exits_2(self, tmp_path, capsys):
        # the batch of test_indefinite_inv_batch_exits_2: pgd exits as inv
        # does, where it used to train on it
        self._check_indefinite_batch_exits_2(tmp_path, capsys, "mmcl_pgd")

    @staticmethod
    def _check_indefinite_batch_exits_2(tmp_path, capsys, loss):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, loss=loss, **{"kernel.kind": "tanh", "kernel.gamma": 2.0})
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
                               "--solver", "inv", "--set", "C=100", "--set", "beta=2.0")
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
        inst.write_text("[z_pos]\n1.0,0.0,0.0\n[Z_neg]\n0.0,1.0,0.0\n0.0,0.0,1.0\n-1.0,0.0,0.0\n")
        results = {}
        for solver in ("oracle", "inv"):
            code, out, _ = run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver,
                                   "--set", "kernel.kind=rbf", "--set", "kernel.sigma_sq=1.0",
                                   "--set", "C=100", "--set", "beta=0.1")
            assert code == 0
            header, rows = parse_csv_blocks(out)[0]
            results[solver] = float(rows[0][header.index("objective")])
        assert results["oracle"] == pytest.approx(results["inv"], abs=1e-8)

    def test_pgd_zero_budget(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xY]\n0.0,0.0\n[K_YY]\n1.0,0.0\n0.0,1.0\n")
        code, out, _ = run_cli(capsys, "solve", "--instance", str(inst), "--solver", "pgd",
                               "--set", "solver.max_iters=0", "--set", "C=0.5", "--set", "beta=0.1")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert rows[0][header.index("iterations")] == "0"
        # pgd starts at the inv solution, here both alphas at C = 0.5 with a
        # gradient pointing out of the box, which is the optimum
        assert rows[0][header.index("converged")] == "true"
        _, inv_out, _ = run_cli(capsys, "solve", "--instance", str(inst), "--solver", "inv",
                                "--set", "C=0.5", "--set", "beta=0.1")
        assert parse_csv_blocks(out)[1] == parse_csv_blocks(inv_out)[1]
        assert [float(r[1]) for r in parse_csv_blocks(out)[1][1]] == [0.5, 0.5]

    EMBEDDINGS = "[z_pos]\n1.0,0.0\n[Z_neg]\n0.0,1.0\n-1.0,0.0\n"

    def _solve(self, tmp_path, capsys, instance, *settings, solver="inv"):
        inst = tmp_path / "inst.txt"
        inst.write_text(instance)
        return run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver, *settings)

    def test_kernel_comes_from_config_keys(self, tmp_path, capsys):
        # tanh with the slope flipped to +gamma; "yes" and "true" must agree,
        # as they do in config files; beta = 5 keeps D positive definite
        alphas = {}
        for flag in ("yes", "true", "no"):
            code, out, _ = self._solve(tmp_path, capsys, self.EMBEDDINGS, "--set", "beta=5.0",
                                       "--set", "kernel.kind=tanh", "--set", "kernel.gamma=0.5",
                                       "--set", f"kernel.positive_gamma={flag}")
            assert code == 0
            alphas[flag] = [float(r[1]) for r in parse_csv_blocks(out)[1][1]]
        assert alphas["yes"] == alphas["true"]
        assert alphas["yes"] != alphas["no"]

    def test_inv_on_indefinite_dual_exits_2(self, tmp_path, capsys):
        # tanh with gamma = 2 gives this instance an indefinite D at the default beta
        self._check_indefinite_dual_exits_2(tmp_path, capsys, "inv")

    @pytest.mark.parametrize("solver", ["pgd", "oracle"])
    def test_pgd_and_oracle_on_indefinite_dual_exit_2(self, tmp_path, capsys, solver):
        # the instance of test_inv_on_indefinite_dual_exits_2: every solver
        # rejects it with the same error
        self._check_indefinite_dual_exits_2(tmp_path, capsys, solver)

    def _check_indefinite_dual_exits_2(self, tmp_path, capsys, solver):
        code, out, err = self._solve(tmp_path, capsys, self.EMBEDDINGS,
                                     "--set", "kernel.kind=tanh", "--set", "kernel.gamma=2.0",
                                     solver=solver)
        assert code == 2
        assert out == ""
        assert err.startswith("error: D of SvmInstance(n=2, ")
        assert "is not positive definite" in err

    @pytest.mark.parametrize("section,message", [
        ("kernal", "unknown section [kernal]"), ("kernel", "--set kernel.<key>=")])
    def test_unknown_section_exits_2_naming_it(self, tmp_path, capsys, section, message):
        # the kernel comes from kernel.* only; with the tanh kernel below
        # ignored, the default rbf would solve and exit 0
        code, out, err = self._solve(tmp_path, capsys,
                                     f"[{section}]\nkind = tanh\ngamma = 2.0\n" + self.EMBEDDINGS)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("solver", ["pgd", "inv", "oracle"])
    @pytest.mark.parametrize("setting,message", [
        ("C=-1", "C must be positive"), ("beta=-5", "beta must be nonnegative")])
    def test_raw_kernel_instance_rejects_bad_C_and_beta(self, tmp_path, capsys, solver,
                                                        setting, message):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xY]\n0.5,0.2\n[K_YY]\n1,0.1\n0.1,1\n")
        code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver,
                                 "--set", setting)
        assert code == 2 and out == ""
        assert message in err

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        # a missing section and an asymmetric [K_YY] are named, for every
        # solver, before any solve
        inst = tmp_path / "bad.txt"
        for text, message in (("just some text\n", "before any [section]"),
                              ("[K_YY]\n1,0\n0,1\n", "needs a [k_xY] section"),
                              ("[Z_neg]\n1,0\n0,1\n", "needs a [z_pos] section"),
                              ("[k_xY]\n0.2,0.1\n[K_YY]\n1,0.9\n-0.5,1\n", "not symmetric")):
            inst.write_text(text)
            for solver in ("pgd", "inv", "oracle"):
                code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver)
                assert code == 2 and out == ""
                assert message in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,text", [
        ("k_xx", "[k_xx]\n{}\n[k_xY]\n0.5,0.2\n[K_YY]\n1,0.1\n0.1,1\n"),
        ("k_xY", "[k_xY]\n0.5,{}\n[K_YY]\n1,0.1\n0.1,1\n"),
        ("K_YY", "[k_xY]\n0.5,0.2\n[K_YY]\n1,{0}\n{0},1\n"),
        ("z_pos", "[z_pos]\n{},0.0\n[Z_neg]\n0.0,1.0\n-1.0,0.0\n"),
        ("Z_neg", "[z_pos]\n1.0,0.0\n[Z_neg]\n0.0,1.0\n-1.0,{}\n")],
        ids=["k_xx", "k_xY", "K_YY", "z_pos", "Z_neg"])
    def test_non_finite_instance_exits_2_naming_the_section(self, tmp_path, capsys, section, text,
                                                            value):
        # such an instance used to solve with NaN alphas that classify_support
        # counted as support vectors, and an infinity leaked RuntimeWarnings
        inst = tmp_path / "inst.txt"
        inst.write_text(text.format(value))
        for solver in ("pgd", "inv", "oracle"):
            code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver)
            assert code == 2 and out == ""
            assert err == f"error: {inst}: [{section}] holds a non-finite value\n"

    @pytest.mark.parametrize("text,message", [
        ("[k_xx]\n[k_xY]\n0.5,0.2\n[K_YY]\n1,0.1\n0.1,1\n", "[k_xx] is empty"),
        ("[k_xx]\n1,2\n[k_xY]\n0.5,0.2\n[K_YY]\n1,0.1\n0.1,1\n", "[k_xx] holds 2 values"),
        ("[k_xY]\n[K_YY]\n1,0.1\n0.1,1\n", "[k_xY] is empty"),
        ("[k_xY]\n0.5,\n[K_YY]\n1,0.1\n0.1,1\n", "[k_xY] holds a non-numeric cell"),
        ("[k_xY]\n0.5,0.2\n[K_YY]\n", "[K_YY] is empty"),
        ("[k_xY]\n0.5,0.2\n[K_YY]\n1,x\n0.1,1\n", "[K_YY] holds a non-numeric cell"),
        ("[k_xY]\n0.5,0.2\n[K_YY]\n1,0.1\n0.1\n", "[K_YY] row 2 has 1 values, expected 2"),
        ("[z_pos]\n[Z_neg]\n0.0,1.0\n", "[z_pos] is empty"),
        ("[z_pos]\n1.0,one\n[Z_neg]\n0.0,1.0\n", "[z_pos] holds a non-numeric cell"),
        ("[z_pos]\n1.0,0.0\n[Z_neg]\n", "[Z_neg] is empty"),
        ("[z_pos]\n1.0,0.0\n[Z_neg]\n0.0,\n", "[Z_neg] holds a non-numeric cell"),
        ("[z_pos]\n1.0,0.0\n[Z_neg]\n0.0,1.0\n-1.0\n", "[Z_neg] row 2 has 1 values, expected 2")],
        ids=["k_xx-empty", "k_xx-two-values", "k_xY-empty", "k_xY-non-numeric", "K_YY-empty",
             "K_YY-non-numeric", "K_YY-ragged", "z_pos-empty", "z_pos-non-numeric",
             "Z_neg-empty", "Z_neg-non-numeric", "Z_neg-ragged"])
    def test_malformed_section_exits_2_naming_the_file_and_section(self, tmp_path, capsys, text,
                                                                   message):
        # these used to exit 2 with numpy's or float()'s message alone ("could
        # not convert string to float: ''", "setting an array element with a
        # sequence", or a shape error), naming neither file nor section
        inst = tmp_path / "inst.txt"
        inst.write_text(text)
        for solver in ("pgd", "inv", "oracle"):
            code, out, err = run_cli(capsys, "solve", "--instance", str(inst), "--solver", solver)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {inst}: {message}")

    def test_alpha_x_equals_alpha_sum(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("[k_xY]\n0.2,0.1,0.4\n[K_YY]\n1,0,0\n0,1,0\n0,0,1\n")
        code, out, _ = run_cli(capsys, "solve", "--instance", str(inst),
                               "--solver", "oracle", "--set", "C=10", "--set", "beta=0.1")
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
        return str(cfg)

    def test_eval_prints_report(self, tmp_path, capsys):
        cfg = self._trained(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "eval", "--config", cfg,
                               "--set", "eval.k=3", "--set", "eval.probe_epochs=30")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert header == ["knn_accuracy", "linear_accuracy", "k", "epochs_probe"]
        knn = float(rows[0][0])
        assert 0.0 <= knn <= 1.0

    def test_prints_the_runs_last_evaluation(self, tmp_path, capsys):
        # the checkpoint, data, split seed and evaluation settings all come
        # from the run's config, so eval repeats the run's last logged row;
        # three overlapping classes keep both accuracies below 1
        cfg = self._trained(tmp_path, capsys, seed=3, epochs=2, eval_every=1,
                            **{"eval.k": 5, "eval.probe_epochs": 50, "data.classes": 3,
                               "data.separation": 2.0})
        last = (tmp_path / "metrics.csv").read_text().strip().splitlines()[-1].split(",")
        code, out, _ = run_cli(capsys, "eval", "--config", cfg)
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert rows[0][:2] == last[4:6]
        assert max(map(float, last[4:6])) < 1.0
        assert rows[0][2:] == ["5", "50"]

    def test_k_clipping_warns_but_succeeds(self, tmp_path, capsys):
        cfg = self._trained(tmp_path, capsys)
        code, out, err = run_cli(capsys, "eval", "--config", cfg,
                                 "--set", "eval.k=5000", "--set", "eval.probe_epochs=10")
        assert code == 0
        assert "clipp" in err.lower()

    def test_unlabeled_dataset_exits_2(self, tmp_path, capsys):
        cfg = self._trained(tmp_path, capsys)
        unlabeled = tmp_path / "unlabeled.csv"
        save_csv(Dataset(samples=np.random.default_rng(0).standard_normal((8, 6))), unlabeled)
        code, _, err = run_cli(capsys, "eval", "--config", cfg,
                               "--set", "data.kind=csv", "--set", f"data.path={unlabeled}")
        assert code == 2

    @pytest.mark.parametrize("key,value", [
        ("eval.test_fraction", "1"), ("eval.probe_epochs", "0"), ("eval.k", "0"),
        ("eval.probe_lr", "0")])
    def test_unusable_eval_setting_exits_2(self, tmp_path, capsys, key, value):
        cfg = self._trained(tmp_path, capsys)
        code, out, err = run_cli(capsys, "eval", "--config", cfg, "--set", f"{key}={value}")
        assert code == 2
        assert key in err and out == ""

    def test_truncated_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        cfg = self._trained(tmp_path, capsys)
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(b"MMCL1\x01")
        code, _, err = run_cli(capsys, "eval", "--config", cfg, "--set", f"out.checkpoint={bad}")
        assert code == 2
        assert "short.ckpt" in err and "Traceback" not in err

    def test_non_finite_embeddings_exit_2(self, tmp_path, capsys):
        # a NaN in the last backbone bias makes every train and test
        # embedding non-finite; the readouts refuse to score them
        cfg = self._trained(tmp_path, capsys)
        state = load_state(tmp_path / "model.ckpt")
        state.params.layers[-1][1][0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_state(state, bad)
        code, out, err = run_cli(capsys, "eval", "--config", cfg, "--set", f"out.checkpoint={bad}")
        assert code == 2 and out == ""
        assert "error: train embeddings have" in err and "non-finite" in err
        assert "Traceback" not in err

    def test_repeat_runs_identical(self, tmp_path, capsys):
        cfg = self._trained(tmp_path, capsys)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "eval", "--config", cfg,
                                   "--set", "eval.k=3", "--set", "eval.probe_epochs=30")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestInspectCommand:
    def _setup(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, epochs=3)
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0
        return cfg

    def test_alpha_sums_to_header_alpha_x(self, tmp_path, capsys):
        cfg = self._setup(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "inspect", "--config", str(cfg), "--anchor", "3",
                               "--set", "batch_size=8")
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
        code, out, _ = run_cli(capsys, "inspect", "--config", str(cfg), "--anchor", "0",
                               "--set", "batch_size=8")
        assert code == 0

    @pytest.mark.parametrize("all_anchors", [False, True])
    def test_batch_larger_than_dataset_exits_2(self, tmp_path, capsys, all_anchors):
        # the check that training makes, with the same message
        cfg = self._setup(tmp_path, capsys)
        code, out, err = run_cli(capsys, "inspect", "--config", str(cfg), "--set", "batch_size=64",
                                 *(["--all-anchors"] if all_anchors else []))
        assert code == 2 and out == ""
        assert "batch_size = 64" in err

    def test_anchor_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = self._setup(tmp_path, capsys)
        code, _, err = run_cli(capsys, "inspect", "--config", str(cfg), "--anchor", "99999",
                               "--set", "batch_size=8")
        assert code == 2

    @pytest.mark.parametrize("all_anchors", [False, True])
    def test_inv_on_indefinite_dual_exits_2(self, tmp_path, capsys, all_anchors):
        self._check_indefinite_dual_exits_2(tmp_path, capsys, all_anchors, "inv")

    @pytest.mark.parametrize("all_anchors,method", [(True, "pgd"), (False, "pgd"), (False, "oracle")])
    def test_pgd_and_oracle_on_indefinite_dual_exit_2(self, tmp_path, capsys, all_anchors, method):
        # the batch of test_inv_on_indefinite_dual_exits_2: every method
        # rejects it with the same error as inv
        self._check_indefinite_dual_exits_2(tmp_path, capsys, all_anchors, method)

    def _check_indefinite_dual_exits_2(self, tmp_path, capsys, all_anchors, method):
        cfg = self._setup(tmp_path, capsys)
        which = ["--all-anchors"] if all_anchors else ["--anchor", "0"]
        code, out, err = run_cli(capsys, "inspect", "--config", str(cfg), *which,
                                 "--set", "batch_size=8", "--method", method,
                                 "--set", "kernel.kind=tanh", "--set", "kernel.gamma=2.0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: anchor 0 of 8: " if all_anchors else "error: D of ")
        assert "not positive definite" in err

    def test_pgd_does_not_read_the_seed(self, tmp_path, capsys, monkeypatch):
        # PGD starts at the inv solution: solve prints the same bytes for
        # every seed, and so does the single-anchor inspect once the batch,
        # which the seed draws, is drawn from one seed
        cfg = self._setup(tmp_path, capsys)
        monkeypatch.setattr(cli, "stream_rng", lambda seed, *stream: stream_rng(0, *stream))
        inst = tmp_path / "inst.txt"
        inst.write_text("[z_pos]\n1.0,0.0,0.2\n[Z_neg]\n0.0,1.0,0.1\n-1.0,0.0,0.3\n"
                        "0.3,0.3,-1.0\n0.5,-0.5,0.5\n")
        outs = {"solve": set(), "inspect": set()}
        for seed in (0, 7):
            code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--instance", str(inst),
                                   "--solver", "pgd", "--set", f"seed={seed}")
            assert code == 0
            outs["solve"].add(out)
            code, out, _ = run_cli(capsys, "inspect", "--config", str(cfg), "--anchor", "0",
                                   "--method", "pgd", "--set", "batch_size=8", "--set", f"seed={seed}")
            assert code == 0
            outs["inspect"].add(out)
        assert len(outs["solve"]) == len(outs["inspect"]) == 1

    @pytest.mark.parametrize("all_anchors", [False, True])
    def test_non_finite_embeddings_exit_2(self, tmp_path, capsys, all_anchors):
        # a NaN in the last backbone bias makes every head embedding
        # non-finite; inspect refuses them as eval does, where it used to
        # print NaN alphas marked as support vectors
        cfg = self._setup(tmp_path, capsys)
        state = load_state(tmp_path / "model.ckpt")
        state.params.layers[-1][1][0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_state(state, bad)
        which = ["--all-anchors"] if all_anchors else ["--anchor", "0"]
        code, out, err = run_cli(capsys, "inspect", "--config", str(cfg), *which,
                                 "--set", "batch_size=8", "--set", f"out.checkpoint={bad}")
        assert code == 2 and out == ""
        assert err == "error: head embeddings have 8 of 8 rows with non-finite entries\n"

    def test_oracle_is_for_a_single_anchor_only(self, tmp_path, capsys):
        # batch_loss solves with the paper's pgd or inv; the exact oracle
        # solves one anchor's dual, so a whole batch asked of it exits 2
        cfg = self._setup(tmp_path, capsys)
        tc = build_train_config(parse_config_file(cfg))
        with pytest.raises(ValueError, match="'pgd' or 'inv'"):
            batch_loss(np.eye(4)[:, :3], np.eye(4)[:, 1:], tc.kernel, tc.C, tc.beta, tc.solver,
                       method="oracle")
        common = ("inspect", "--config", str(cfg), "--set", "batch_size=4", "--method", "oracle")
        code, out, err = run_cli(capsys, *common, "--all-anchors")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'pgd' or 'inv'" in err
        code, out, _ = run_cli(capsys, *common, "--anchor", "0")
        assert code == 0 and out.startswith("anchor_index,")

    def test_all_anchors_export(self, tmp_path, capsys):
        cfg = self._setup(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "inspect", "--config", str(cfg), "--all-anchors",
                               "--set", "batch_size=4")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert header == ["anchor_index", "negative_index", "alpha", "is_support", "is_margin_violator"]
        assert len(rows) == 4 * 6  # N anchors x 2(N-1) negatives

    def test_all_anchors_export_solves_two_augmented_views(self, tmp_path, capsys):
        # the exported alphas are batch_loss on the two views training would
        # build for the drawn batch, not on one unaugmented view used twice
        cfg = self._setup(tmp_path, capsys)
        N, seed = 4, 5
        code, out, _ = run_cli(capsys, "inspect", "--config", str(cfg), "--all-anchors",
                               "--set", f"batch_size={N}", "--set", f"seed={seed}")
        assert code == 0
        _, rows = parse_csv_blocks(out)[0]
        exported = np.array([float(r[2]) for r in rows]).reshape(N, 2 * N - 2)

        tc = build_train_config(parse_config_file(cfg))
        params = load_state(tmp_path / "model.ckpt").params
        dataset = make_blobs(2, 16, 6, 6.0, seed=0)
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
                               "--set", "solver.max_iters=5", "--dim", "4")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert header == ["batch_size", "loss_variant", "ms_per_iter"]
        assert len(rows) == 2 * 3
        variants = {(r[0], r[1]) for r in rows}
        assert len(variants) == 6

    def test_max_iters_defaults_to_training_budget(self, capsys, monkeypatch):
        budgets = []

        def recording(*args, **kwargs):
            budgets.append(args[5].max_iters)
            return batch_loss(*args, **kwargs)

        monkeypatch.setattr(cli, "batch_loss", recording)
        code, _, _ = run_cli(capsys, "bench", "--sizes", "2", "--reps", "1", "--dim", "2")
        assert code == 0
        assert budgets == [TrainConfig().solver.max_iters] * 2 and budgets[0] == 1000

    def test_bad_sizes_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "--sizes", "1,4")
        assert code == 2

    @pytest.mark.parametrize("flag,message", [("--reps", "--reps must be >= 1"),
                                              ("--dim", "--dim must be >= 1")])
    def test_zero_reps_or_dim_exit_2(self, capsys, flag, message):
        # --reps 0 had no time to take a median of; --dim 0 timed NaN embeddings
        code, out, err = run_cli(capsys, "bench", "--sizes", "2", "--set", "solver.max_iters=5",
                                 flag, "0")
        assert code == 2
        assert out == "" and message in err


class TestOneConfig:
    def test_one_config_drives_every_command(self, tmp_path, capsys):
        cfg = tmp_path / "blobs.cfg"
        write_blobs_config(cfg, tmp_path, epochs=2, eval_every=2, C=50.0, **{"eval.k": 5})
        common = ("--config", str(cfg))
        assert run_cli(capsys, "train", *common)[0] == 0
        last = (tmp_path / "metrics.csv").read_text().strip().splitlines()[-1].split(",")
        code, out, _ = run_cli(capsys, "eval", *common)
        assert code == 0 and parse_csv_blocks(out)[0][1][0][:2] == last[4:6]
        code, out, _ = run_cli(capsys, "inspect", *common, "--anchor", "2")
        assert code == 0
        header, rows = parse_csv_blocks(out)[0]
        assert rows[0][header.index("n_negatives")] == "7"  # batch_size = 8
        assert rows[0][header.index("C")] == "50.0"
        code, out, _ = run_cli(capsys, "inspect", *common, "--all-anchors")
        assert code == 0 and len(parse_csv_blocks(out)[0][1]) == 8 * 14
        inst = tmp_path / "inst.txt"
        inst.write_text("[z_pos]\n1.0,0.0\n[Z_neg]\n0.0,1.0\n-1.0,0.0\n")
        code, out, _ = run_cli(capsys, "solve", *common, "--instance", str(inst))
        assert code == 0 and parse_csv_blocks(out)[0][1][0][0] == "pgd"
        code, out, _ = run_cli(capsys, "bench", *common, "--sizes", "2", "--reps", "1")
        assert code == 0 and len(parse_csv_blocks(out)[0][1]) == 3

    def test_flags_are_the_config_and_each_commands_own_inputs(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        flags = {name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
                 for name, p in subparsers.items()}
        settings = {"--config", "--set"}
        assert flags == {"train": settings, "eval": settings,
                         "inspect": settings | {"--anchor", "--all-anchors", "--method"},
                         "solve": settings | {"--instance", "--solver"},
                         "bench": settings | {"--sizes", "--dim", "--reps"}}
