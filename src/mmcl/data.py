"""Datasets, synthetic generators, and the stochastic two-view augmentation.

Samples are stored row-major (N x d). Randomness follows a counter-based
contract: every consumer derives its generator from a seed plus a stream
key, so parallel workers and resumed runs reproduce exactly.

Binary dataset format:

    magic  b"MMD1"
    int64  N, int64 d, uint8 has_labels
    samples, row-major little-endian float64 (N * d)
    labels, little-endian int64 (N), present iff has_labels
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

DATASET_MAGIC = b"MMD1"


def stream_rng(seed: int, *stream) -> np.random.Generator:
    """Deterministic generator for (seed, stream id...); distinct streams
    are statistically independent."""
    key = [int(seed)] + [s if isinstance(s, int) else int.from_bytes(str(s).encode(), "big") for s in stream]
    return np.random.default_rng(key)


@dataclass
class Dataset:
    samples: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be N x d, got shape {self.samples.shape}")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain NaN or Inf")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.samples.shape[0],):
                raise ValueError(f"labels shape {self.labels.shape} does not match {self.samples.shape[0]} samples")
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be nonnegative")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class AugmentationSpec:
    """Random cascade applied to a sample: a multiplicative scale drawn from
    [scale_lo, scale_hi], additive Gaussian noise, then coordinate dropout.
    Construction rejects a value no run can use, naming its ``aug.*`` key."""

    noise_sigma: float = 0.0
    dropout_p: float = 0.0
    scale_lo: float = 1.0
    scale_hi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"aug.noise_sigma must be nonnegative and finite, got {self.noise_sigma}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"aug.dropout_p must be in [0, 1), got {self.dropout_p}")
        if not 0.0 < self.scale_lo < math.inf:
            raise ValueError(f"aug.scale_lo must be positive and finite, got {self.scale_lo}")
        if not self.scale_lo <= self.scale_hi < math.inf:
            raise ValueError(f"aug.scale_hi must be finite and >= aug.scale_lo = {self.scale_lo}, "
                             f"got {self.scale_hi}")


def augment_batch(spec: AugmentationSpec, X, rng: np.random.Generator) -> np.ndarray:
    """One augmented view of each row of X (N x d); a fixed rng state gives
    a fixed output.

    Draws happen in a fixed order (every row's scale, then the noise, then
    the dropout mask) regardless of the spec values, so the identity spec
    reproduces X exactly while consuming the same stream positions. One
    sample x is the batch ``x[None]``.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    scale = rng.uniform(spec.scale_lo, spec.scale_hi, size=(n, 1))
    noise = rng.standard_normal((n, d))
    keep = rng.random((n, d)) >= spec.dropout_p
    return (X * scale + spec.noise_sigma * noise) * keep


def make_blobs(num_classes: int, per_class: int, d: int, separation: float,
               seed: int = 0) -> Dataset:
    """Gaussian clusters with unit covariance and mutually equidistant means.

    The means sit at separation/sqrt(2) along distinct coordinate axes, so
    every pair is exactly ``separation`` apart (requires num_classes <= d).
    """
    if num_classes < 1 or per_class < 1 or d < 1:
        raise ValueError("num_classes, per_class and d must all be >= 1")
    if not 0 < separation < math.inf:
        raise ValueError(f"data.separation must be positive and finite, got {separation}")
    if seed < 0:
        raise ValueError(f"data.seed must be >= 0, got {seed}")
    if num_classes > d:
        raise ValueError(f"equidistant means need num_classes <= d, got {num_classes} > {d}")
    rng = stream_rng(seed, "blobs")
    means = np.zeros((num_classes, d))
    for c in range(num_classes):
        means[c, c] = separation / np.sqrt(2.0)
    labels = np.repeat(np.arange(num_classes), per_class)
    samples = means[labels] + rng.standard_normal((labels.size, d))
    order = rng.permutation(labels.size)
    return Dataset(samples=samples[order], labels=labels[order])


def make_moons(per_class: int, noise: float, ambient_dim: int, seed: int = 0) -> Dataset:
    """Two interleaved half-circles, zero-padded and randomly rotated into
    ambient_dim (identity rotation when ambient_dim == 2)."""
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if ambient_dim < 2:
        raise ValueError(f"ambient_dim must be >= 2, got {ambient_dim}")
    if not 0 <= noise < math.inf:
        raise ValueError(f"data.noise must be nonnegative and finite, got {noise}")
    if seed < 0:
        raise ValueError(f"data.seed must be >= 0, got {seed}")
    t = np.linspace(0.0, np.pi, per_class)
    upper = np.stack([np.cos(t), np.sin(t)], axis=1)
    lower = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    base = np.concatenate([upper, lower], axis=0)
    labels = np.concatenate([np.zeros(per_class, dtype=np.int64),
                             np.ones(per_class, dtype=np.int64)])
    base = base + noise * stream_rng(seed, "moons", "noise").standard_normal(base.shape)
    samples = np.zeros((base.shape[0], ambient_dim))
    samples[:, :2] = base
    if ambient_dim > 2:
        G = stream_rng(seed, "moons", "rotation").standard_normal((ambient_dim, ambient_dim))
        Q, _ = np.linalg.qr(G)
        samples = samples @ Q.T
    order = stream_rng(seed, "moons", "shuffle").permutation(labels.size)
    return Dataset(samples=samples[order], labels=labels[order])


def load_csv(path) -> Dataset:
    """Rectangular numeric CSV; an optional header names the columns, and a
    final column named 'label' is split off as integer labels, each the
    nearest integer to its cell. A file with no data rows, or a label cell
    that is not finite, lies outside the int64 range or is not close to an
    integer, is a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    has_labels = False
    start = 0
    first = lines[0].split(",")
    try:
        float(first[0])
    except ValueError:
        start = 1
        has_labels = first[-1].strip().lower() == "label"
    rows = []
    width = None
    for i, ln in enumerate(lines[start:], start=start + 1):
        cells = ln.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"{path}: row {i}: expected {width} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: non-numeric cell ({exc})") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if has_labels:
        labels = data[:, -1]
        # int64 holds [-2^63, 2^63); NaN fails both comparisons
        if not np.all((labels >= -2.0 ** 63) & (labels < 2.0 ** 63)):
            raise ValueError(f"{path}: label column holds a non-finite value or one "
                             "outside the int64 range")
        rounded = np.round(labels)
        if not np.allclose(labels, rounded):
            raise ValueError(f"{path}: label column contains non-integer values")
        return Dataset(samples=data[:, :-1], labels=rounded.astype(np.int64))
    return Dataset(samples=data, labels=None)


def save_csv(dataset: Dataset, path) -> None:
    """Inverse of ``load_csv``; values are written with round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        d = dataset.dim
        if dataset.labels is not None:
            fh.write(",".join([f"x{i}" for i in range(d)] + ["label"]) + "\n")
            for row, lab in zip(dataset.samples, dataset.labels):
                fh.write(",".join(repr(float(v)) for v in row) + f",{lab}\n")
        else:
            for row in dataset.samples:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def save_binary(dataset: Dataset, path) -> None:
    with open(path, "wb") as fh:
        n, d = dataset.samples.shape
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<qqB", n, d, 1 if dataset.labels is not None else 0))
        fh.write(np.ascontiguousarray(dataset.samples, dtype="<f8").tobytes())
        if dataset.labels is not None:
            fh.write(np.ascontiguousarray(dataset.labels, dtype="<i8").tobytes())


def load_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(len(DATASET_MAGIC))
        if magic != DATASET_MAGIC:
            raise ValueError(f"{path}: bad dataset magic {magic!r}")
        n, d, has_labels = read_struct(fh, "<qqB")
        samples = read_array(fh, "<f8", (n, d))
        labels = read_array(fh, "<i8", (n,)) if has_labels else None
    return Dataset(samples=samples, labels=labels)


def read_exact(fh, size: int) -> bytes:
    """The next ``size`` bytes of a seekable binary file. A file that ends
    early (truncated, or a garbled length) raises a ValueError naming it
    before anything of that length is allocated."""
    pos = fh.tell()
    left = fh.seek(0, os.SEEK_END) - fh.seek(pos)
    if not 0 <= size <= left:
        raise ValueError(f"{getattr(fh, 'name', '<stream>')}: truncated or corrupt: "
                         f"needs {size} bytes at offset {pos}, {left} left")
    return fh.read(size)


def read_struct(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt)))


def read_array(fh, dtype: str, shape: tuple) -> np.ndarray:
    """A copy of the next array of ``shape`` in a binary file."""
    if min(shape) < 0:
        raise ValueError(f"{getattr(fh, 'name', '<stream>')}: corrupt: negative shape {shape}")
    dtype = np.dtype(dtype)
    raw = read_exact(fh, math.prod(shape) * dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
