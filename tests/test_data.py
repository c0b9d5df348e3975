import math
import re
import struct
import warnings

import numpy as np
import pytest
from scipy.stats import binomtest

from mmcl import (AugmentationSpec, Dataset, augment_batch, load_binary,
                  load_csv, make_blobs, make_moons, save_binary, save_csv, stream_rng)


class TestAugment:
    def test_identity_spec(self):
        spec = AugmentationSpec(noise_sigma=0.0, dropout_p=0.0, scale_lo=1.0, scale_hi=1.0)
        x = np.array([1.5, -2.0, 0.0, 3.25])
        out = augment_batch(spec, x[None], stream_rng(0, "aug"))[0]
        assert np.array_equal(out, x)

    def test_same_state_same_output(self):
        spec = AugmentationSpec(noise_sigma=0.3, dropout_p=0.2, scale_lo=0.8, scale_hi=1.2)
        x = np.linspace(-1, 1, 16)
        a = augment_batch(spec, x[None], stream_rng(7, "aug"))[0]
        b = augment_batch(spec, x[None], stream_rng(7, "aug"))[0]
        assert np.array_equal(a, b)

    def test_dropout_rate_binomial(self):
        # dropout_p = 0.5 zeroes about half the coordinates over many draws
        spec = AugmentationSpec(noise_sigma=0.0, dropout_p=0.5, scale_lo=1.0, scale_hi=1.0)
        d = 50
        x = np.ones(d)
        rng = stream_rng(3, "dropout")
        zeros = 0
        draws = 200
        for _ in range(draws):
            zeros += int(np.sum(augment_batch(spec, x[None], rng)[0] == 0.0))
        assert binomtest(zeros, draws * d, 0.5).pvalue > 0.01

    def test_no_nan_inf(self):
        spec = AugmentationSpec(noise_sigma=2.0, dropout_p=0.4, scale_lo=0.5, scale_hi=2.0)
        rng = stream_rng(5, "aug")
        for _ in range(50):
            out = augment_batch(spec, np.random.default_rng(1).standard_normal(8)[None], rng)[0]
            assert np.isfinite(out).all()

    def test_batch_matches_spec_semantics(self):
        # per-row scale, then noise, then dropout; identity spec is exact
        spec = AugmentationSpec()
        X = np.random.default_rng(2).standard_normal((5, 7))
        out = augment_batch(spec, X, stream_rng(0, "b"))
        assert np.array_equal(out, X)

    def test_view_streams_differ(self):
        spec = AugmentationSpec(noise_sigma=0.1)
        X = np.ones((4, 6))
        v1 = augment_batch(spec, X, stream_rng(0, "aug", 0, 0, 0))
        v2 = augment_batch(spec, X, stream_rng(0, "aug", 0, 0, 1))
        assert not np.array_equal(v1, v2)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            AugmentationSpec(dropout_p=1.0)
        with pytest.raises(ValueError):
            AugmentationSpec(scale_lo=0.0, scale_hi=1.0)
        with pytest.raises(ValueError):
            AugmentationSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("noise_sigma", math.nan), ("noise_sigma", math.inf), ("scale_lo", math.nan),
        ("scale_hi", math.inf), ("scale_hi", math.nan)])
    def test_non_finite_spec_names_its_key(self, field, value):
        with pytest.raises(ValueError, match=f"aug.{field} must be"):
            AugmentationSpec(**{field: value})
        if field == "scale_hi":
            with pytest.raises(ValueError, match="aug.scale_lo must be"):
                AugmentationSpec(scale_lo=value, scale_hi=value)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("key", ["data.separation", "data.noise"])
def test_generators_reject_non_finite_settings(key, value):
    with pytest.raises(ValueError, match=f"{key} must be .* and finite, got {value}"):
        if key == "data.separation":
            make_blobs(2, 4, 4, separation=value)
        else:
            make_moons(4, noise=value, ambient_dim=2)


class TestMakeBlobs:
    def test_single_class_labels(self):
        ds = make_blobs(1, 20, 4, separation=5.0, seed=0)
        assert np.all(ds.labels == 0)

    def test_equidistant_means(self):
        sep = 7.0
        ds = make_blobs(4, 200, 8, separation=sep, seed=1)
        means = np.stack([ds.samples[ds.labels == c].mean(axis=0) for c in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(sep, abs=0.5)

    def test_wide_separation_is_nn_separable(self):
        ds = make_blobs(3, 60, 8, separation=20.0, seed=2)
        X, y = ds.samples, ds.labels
        # leave-one-out 1-NN on raw features
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        acc = float(np.mean(y[np.argmin(d2, axis=1)] == y))
        assert acc >= 0.999

    def test_seed_determinism(self):
        a = make_blobs(2, 30, 5, 6.0, seed=9)
        b = make_blobs(2, 30, 5, 6.0, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            make_blobs(5, 10, 4, 1.0)


class TestMakeMoons:
    def test_noiseless_upper_arc(self):
        ds = make_moons(50, noise=0.0, ambient_dim=2, seed=0)
        upper = ds.samples[ds.labels == 0]
        assert np.abs(np.linalg.norm(upper, axis=1) - 1.0).max() <= 1e-12
        assert upper[:, 1].min() >= -1e-12

    def test_probe_gap_on_noisy_moons(self):
        # moons are not linearly separable: the linear probe stays below
        # 0.92 while 1-NN exceeds 0.95 on raw features
        from mmcl import linear_probe
        ds = make_moons(500, noise=0.1, ambient_dim=2, seed=3)
        X, y = ds.samples, ds.labels
        half = len(ds) // 2
        lin = linear_probe(X[:half], y[:half], X[half:], y[half:], epochs=800, lr=0.5)
        d2 = ((X[half:, None, :] - X[None, :half, :]) ** 2).sum(-1)
        nn_acc = float(np.mean(y[:half][np.argmin(d2, axis=1)] == y[half:]))
        assert lin < 0.92
        assert nn_acc > 0.95

    def test_rotation_preserves_geometry(self):
        flat = make_moons(100, noise=0.0, ambient_dim=2, seed=4)
        high = make_moons(100, noise=0.0, ambient_dim=16, seed=4)
        assert high.samples.shape[1] == 16
        # rotation is orthogonal: pairwise distances survive
        d_flat = np.linalg.norm(flat.samples[:5, None] - flat.samples[None, :5], axis=-1)
        d_high = np.linalg.norm(high.samples[:5, None] - high.samples[None, :5], axis=-1)
        assert d_flat == pytest.approx(d_high, abs=1e-9)

    def test_seed_determinism(self):
        a = make_moons(40, 0.05, 8, seed=11)
        b = make_moons(40, 0.05, 8, seed=11)
        assert np.array_equal(a.samples, b.samples)


class TestCsv:
    def test_plain_matrix(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        ds = load_csv(p)
        assert ds.samples.shape == (2, 3)
        assert ds.labels is None

    def test_label_header(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("x0,x1,label\n0.5,1.5,1\n2.5,3.5,0\n")
        ds = load_csv(p)
        assert ds.samples.shape == (2, 2)
        assert np.array_equal(ds.labels, [1, 0])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = Dataset(samples=rng.standard_normal((10, 4)), labels=rng.integers(0, 3, 10))
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert np.abs(back.samples - ds.samples).max() <= 1e-15
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("header", ["x0,x1,label", "x0,x1"])
    def test_header_without_data_rows_names_the_file(self, tmp_path, header):
        # an IndexError with a label column, and without one an error on
        # the samples' shape that named no file
        p = tmp_path / "empty.csv"
        p.write_text(header + "\n\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: no data rows$"):
            load_csv(p)

    def test_ragged_rows_name_the_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p)

    def test_non_numeric_cell_names_the_row(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p)

    def test_label_next_to_an_integer_rounds_to_it(self, tmp_path):
        # 0.9999999999 passes the integer check; a cast truncated it to 0
        p = tmp_path / "near.csv"
        p.write_text("x0,label\n0.5,0.9999999999\n1.5,2.0000000001\n2.5,-0.0000000001\n")
        assert np.array_equal(load_csv(p).labels, [1, 2, 0])

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan", "1e30", "-1e30", "9.3e18"])
    def test_non_finite_or_int64_overflowing_label_names_the_file(self, tmp_path, label):
        # inf and 1e30 used to reach the int64 cast, which warned "invalid
        # value encountered in cast" before "labels must be nonnegative"
        p = tmp_path / "huge.csv"
        p.write_text(f"x0,label\n0.5,1\n1.5,{label}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                load_csv(p)
        assert str(exc.value) == (f"{p}: label column holds a non-finite value or one outside "
                                  "the int64 range")


class TestBinary:
    def test_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = Dataset(samples=rng.standard_normal((12, 5)), labels=rng.integers(0, 4, 12))
        p = tmp_path / "d.mmd"
        save_binary(ds, p)
        back = load_binary(p)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)

    def test_round_trip_unlabeled(self, tmp_path):
        ds = Dataset(samples=np.eye(3))
        p = tmp_path / "u.mmd"
        save_binary(ds, p)
        assert load_binary(p).labels is None

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.mmd"
        p.write_bytes(b"WRONGxxxx")
        with pytest.raises(ValueError, match="magic"):
            load_binary(p)

    def test_truncated_file_names_it(self, tmp_path):
        ds = Dataset(samples=np.arange(12.0).reshape(4, 3), labels=[0, 1, 0, 1])
        p = tmp_path / "d.mmd"
        save_binary(ds, p)
        full = p.read_bytes()
        for cut in (5, 21, 30, len(full) - 8, len(full) - 1):
            p.write_bytes(full[:cut])
            with pytest.raises(ValueError, match="d.mmd: truncated"):
                load_binary(p)

    def test_negative_shape_names_file(self, tmp_path):
        # (-1) * (-1) * 8 bytes would pass a length check on its own
        p = tmp_path / "n.mmd"
        p.write_bytes(b"MMD1" + struct.pack("<qqB", -1, -1, 0) + bytes(8))
        with pytest.raises(ValueError, match="n.mmd: corrupt: negative shape"):
            load_binary(p)

    @pytest.mark.parametrize("seed", range(8))
    def test_garbled_header_names_file(self, tmp_path, seed):
        # random sizes are huge or negative: rejected before any allocation
        p = tmp_path / "g.mmd"
        p.write_bytes(b"MMD1" + np.random.default_rng(seed).bytes(64))
        with pytest.raises(ValueError, match="g.mmd"):
            load_binary(p)


class TestDatasetValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(samples=np.array([[np.nan, 1.0]]))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            Dataset(samples=np.eye(3), labels=np.array([0, 1]))
