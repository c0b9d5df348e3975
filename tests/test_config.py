import dataclasses
import math
import re

import pytest

from mmcl.config import (SCHEMA, ConfigError, apply_overrides, build_train_config,
                         default_config, load_dataset, parse_config_text)
from mmcl.training import TrainConfig


class TestParsing:
    def test_defaults_when_empty(self):
        cfg = parse_config_text("")
        assert cfg == default_config()

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nepochs = 7  # trailing\n")
        assert cfg["epochs"] == 7

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config_text("foo = 1\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_text("epochs = many\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("epochs 7\n")

    def test_infinity_slack(self):
        cfg = parse_config_text("C = inf\n")
        assert cfg["C"] == math.inf

    def test_schedule_grammar(self):
        cfg = parse_config_text("schedules = 25:C:10;75:sigma_sq:0.2\n")
        assert cfg["schedules"] == ((25, "C", 10.0), (75, "sigma_sq", 0.2))

    def test_step_size_auto_or_float(self):
        assert parse_config_text("solver.step_size = auto\n")["solver.step_size"] == "auto"
        assert parse_config_text("solver.step_size = 0.001\n")["solver.step_size"] == 0.001

    def test_widths_list(self):
        cfg = parse_config_text("model.backbone_widths = 8,16,32\n")
        assert cfg["model.backbone_widths"] == (8, 16, 32)


class TestOverrides:
    def test_cli_beats_file(self):
        cfg = parse_config_text("epochs = 3\n")
        apply_overrides(cfg, ["epochs=9"])
        assert cfg["epochs"] == 9

    def test_unknown_override_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            apply_overrides(default_config(), ["bogus=1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["epochs"])


# A valid value other than the default for every training key.
NON_DEFAULT = {
    "model.backbone_widths": "8,16", "model.head_hidden": "7", "model.out_dim": "5",
    "kernel.kind": "tanh", "kernel.sigma_sq": "2.0", "kernel.gamma": "0.5",
    "kernel.bias": "0.25", "loss": "nce", "C": "inf",
    "beta": "0.5", "fn_correction": "true", "temperature": "0.2", "batch_size": "16",
    "epochs": "3", "lr": "0.01", "seed": "7", "eval_every": "2", "eval_features": "head",
    "eval.k": "11", "eval.probe_epochs": "50", "eval.probe_lr": "0.3",
    "eval.test_fraction": "0.5", "schedules": "3:C:10", "solver.step_size": "0.01",
    "solver.max_iters": "17", "solver.tol": "1e-6", "solver.nesterov": "false",
    "aug.noise_sigma": "0.3", "aug.dropout_p": "0.2",
    "aug.scale_lo": "0.5", "aug.scale_hi": "2.0",
}


def _field_values(tc: TrainConfig) -> dict:
    """Every TrainConfig field, with the kernel, solver and augmentation
    flattened to "part.field"."""
    out = {}
    for f in dataclasses.fields(tc):
        value = getattr(tc, f.name)
        if dataclasses.is_dataclass(value):
            out.update((f"{f.name}.{g.name}", getattr(value, g.name))
                       for g in dataclasses.fields(value))
        else:
            out[f.name] = value
    return out


class TestTable:
    def test_defaults_are_train_config_defaults(self):
        assert build_train_config(default_config()) == TrainConfig()

    def test_every_field_has_exactly_one_key(self):
        # but solver.seed, which nothing in mmcl reads (every PGD run starts
        # at the inv solution); it stays a field only because the benchmark
        # harness constructs SolverConfig(..., seed=...)
        named = sorted(path for _, path in SCHEMA.values())
        assert named == sorted(set(_field_values(TrainConfig())) - {"solver.seed"})

    @pytest.mark.parametrize("key", sorted(SCHEMA))
    def test_override_changes_only_its_field(self, key):
        assert set(NON_DEFAULT) == set(SCHEMA)
        base = _field_values(TrainConfig())
        changed = _field_values(build_train_config(apply_overrides(default_config(),
                                                                   [f"{key}={NON_DEFAULT[key]}"])))
        differ = [path for path in base if base[path] != changed[path]]
        assert differ == [SCHEMA[key][1]]


class TestBuilders:
    def test_kernel_and_solver(self):
        cfg = parse_config_text("kernel.kind = tanh\nkernel.gamma = 2.5\nsolver.max_iters = 17\n")
        assert build_train_config(cfg).kernel.gamma == 2.5
        assert build_train_config(cfg).solver.max_iters == 17

    def test_train_config(self):
        cfg = parse_config_text("loss = nce\nbatch_size = 4\n")
        tc = build_train_config(cfg)
        assert tc.loss == "nce" and tc.batch_size == 4

    def test_invalid_train_config_is_config_error(self):
        cfg = parse_config_text("batch_size = 1\n")
        with pytest.raises(ConfigError):
            build_train_config(cfg)

    @pytest.mark.parametrize("key,value", [
        ("eval.test_fraction", "1"), ("eval.test_fraction", "1.5"), ("eval.test_fraction", "0"),
        ("eval.probe_epochs", "0"), ("eval.k", "0"), ("eval.probe_lr", "0"),
        ("eval.probe_lr", "inf"), ("eval.probe_lr", "nan"), ("lr", "inf"), ("lr", "nan"),
        ("temperature", "inf"), ("temperature", "nan")])
    def test_unusable_eval_setting_is_config_error_naming_it(self, key, value):
        cfg = parse_config_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_train_config(cfg)

    @pytest.mark.parametrize("key", ["fn_correction", "solver.nesterov"])
    def test_boolean_words_parse_alike_in_files_and_overrides(self, key):
        def built(word, how):
            cfg = (parse_config_text(f"{key} = {word}\n") if how == "file"
                   else apply_overrides(default_config(), [f"{key}={word}"]))
            return build_train_config(cfg)

        on = [built(word, how) for word in ("yes", "true", "1") for how in ("file", "set")]
        off = [built(word, how) for word in ("no", "false", "0") for how in ("file", "set")]
        assert all(tc == on[0] for tc in on) and all(tc == off[0] for tc in off)
        assert on[0] != off[0]

    def test_load_dataset_kinds(self):
        blobs = load_dataset(parse_config_text("data.kind = blobs\ndata.per_class = 5\ndata.classes = 2\ndata.dim = 4\n"))
        assert len(blobs) == 10
        moons = load_dataset(parse_config_text("data.kind = moons\ndata.per_class = 6\ndata.dim = 2\n"))
        assert len(moons) == 12
