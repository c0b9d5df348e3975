"""MLP encoder with projection head, unit normalization, manual backprop,
and a from-scratch Adam optimizer.

Layout convention: inputs and embeddings are column matrices (d x N).
Weights are (out, in); a layer computes W @ H + b. ReLU follows every
backbone layer and the first head layer; the second head layer's output is
normalized to unit length per column.

Checkpoint format (documented because it is a stable external surface):

    magic  b"MMCL1"
    int64  number of backbone layers L
    int64  number of head layers (always 2)
    for each of the L + 2 layers, in order: int64 out_dim, int64 in_dim
    for each layer, in order:
        weight matrix, row-major little-endian float64 (out_dim * in_dim)
        bias vector, little-endian float64 (out_dim)

The weights and biases, in this order, are the one vector
``EncoderParams.flat`` in which the parameters live; a gradient and each
Adam moment are vectors of the same layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import read_array, read_struct

MAGIC = b"MMCL1"
NORM_FLOOR = 1e-12  # guards against near-zero pre-normalization vectors


class StaleTapeError(RuntimeError):
    """The tape was produced by a different forward pass than the one
    being differentiated."""


class EncoderParams:
    """Backbone and projection-head weights in one contiguous float64
    vector, ``flat``, in checkpoint order: each layer's weight (row-major),
    then its bias, backbone first. ``layers`` and ``head`` are tuples of
    (weight, bias) views into ``flat``, so a write through a view writes
    the vector. ``adam_step`` updates ``flat`` in place and bumps
    ``version``, which a tape records, so a tape made before a step is
    stale. Construction from (weight, bias) pairs copies them."""

    def __init__(self, layers, head):
        pairs = [(np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64))
                 for W, b in [*layers, *head]]
        for W, b in pairs:
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError(f"bad layer shapes W {W.shape}, b {b.shape}")
        flat = np.concatenate([a.ravel() for pair in pairs for a in pair])
        self._bind(flat, [W.shape for W, _ in pairs], len(layers))

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes, n_backbone: int) -> "EncoderParams":
        """Parameters held in ``flat`` itself (not a copy), whose layers
        have the (out_dim, in_dim) ``shapes``, backbone first."""
        params = cls.__new__(cls)
        params._bind(flat, shapes, n_backbone)
        return params

    def _bind(self, flat, shapes, n_backbone):
        self.shapes = tuple(shapes)
        expected_in = None
        for shape in self.shapes:
            if expected_in is not None and shape[1] != expected_in:
                raise ValueError(f"layer shapes do not chain: expected in={expected_in}, got {shape}")
            expected_in = shape[0]
        if len(self.shapes) - n_backbone != 2:
            raise ValueError(f"projection head must have exactly 2 layers, got {len(self.shapes) - n_backbone}")
        self.flat = flat
        self.version = 0
        views = self.layer_views(flat)
        self.layers, self.head = tuple(views[:n_backbone]), tuple(views[n_backbone:])

    def layer_views(self, vector: np.ndarray) -> list:
        """(weight, bias) views of ``vector``, laid out as ``flat``: the
        per-layer form of a gradient or an Adam moment."""
        views, start = [], 0
        for out_dim, in_dim in self.shapes:
            mid = start + out_dim * in_dim
            views.append((vector[start:mid].reshape(out_dim, in_dim), vector[mid:mid + out_dim]))
            start = mid + out_dim
        return views

    def all_layers(self) -> tuple:
        return self.layers + self.head

    def copy(self) -> "EncoderParams":
        return EncoderParams.from_flat(self.flat.copy(), self.shapes, len(self.layers))

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]


@dataclass
class ForwardTape:
    """What ``backward`` needs of one forward pass: each layer's input (the
    batch, then every hidden layer's ReLU output, from which ``backward``
    reads the ReLU masks, since relu(v) > 0 exactly where v > 0), the
    last layer's output before normalization, and its column norms; and
    the parameters and their ``version`` at the time of the pass."""

    inputs: list
    pre_norm: np.ndarray
    norms: np.ndarray
    params_ref: object = field(repr=False, default=None)
    version: int = field(repr=False, default=0)


@dataclass
class AdamState:
    """Adam's first and second moments, each one vector laid out as
    ``EncoderParams.flat``, and its settings. ``scratch`` holds the two
    work vectors of a step, so that a step makes no parameter-sized array."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, self.m.size))


def _init_layer(rng, d_in: int, d_out: int):
    # He-style uniform fan-in weights; small uniform biases keep stacked
    # relu columns from dying to an exactly-zero embedding at init
    limit = np.sqrt(6.0 / d_in)
    W = rng.uniform(-limit, limit, size=(d_out, d_in))
    b = rng.uniform(-1.0, 1.0, size=d_out) / np.sqrt(d_in)
    return W, b


def init_params(in_dim: int, backbone_widths, head_hidden: int, out_dim: int,
                seed: int = 0) -> EncoderParams:
    """He-style uniform fan-in initialization from the given seed."""
    rng = np.random.default_rng([int(seed), 0x0E11C0DE])
    dims = [in_dim] + list(backbone_widths)
    layers = [_init_layer(rng, d_in, d_out) for d_in, d_out in zip(dims[:-1], dims[1:])]
    head = [_init_layer(rng, dims[-1], head_hidden), _init_layer(rng, head_hidden, out_dim)]
    return EncoderParams(layers=layers, head=head)


def forward(params: EncoderParams, X) -> tuple[np.ndarray, ForwardTape]:
    """Map a d x N column batch to unit-norm d' x N embeddings.

    Returns the embeddings and the tape needed by ``backward``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != params.in_dim:
        raise ValueError(f"input must be {params.in_dim} x N, got shape {X.shape}")
    inputs = []
    H = X
    all_layers = params.all_layers()
    last = len(all_layers) - 1
    for i, (W, b) in enumerate(all_layers):
        inputs.append(H)
        H = W @ H
        H += b[:, None]
        if i != last:
            np.maximum(H, 0.0, out=H)
    norms = np.maximum(np.linalg.norm(H, axis=0), NORM_FLOOR)
    E = H / norms[None, :]
    tape = ForwardTape(inputs=inputs, pre_norm=H, norms=norms, params_ref=params,
                       version=params.version)
    return E, tape


def forward_features(params: EncoderParams, X) -> np.ndarray:
    """Backbone output (pre-head features), the default evaluation surface.
    Each layer makes one array, its product W @ H, and adds the bias and
    applies the ReLU in place, as ``forward`` does."""
    X = np.asarray(X, dtype=np.float64)
    H = X
    for W, b in params.layers:
        H = W @ H
        H += b[:, None]
        np.maximum(H, 0.0, out=H)
    return H


def backward(params: EncoderParams, tape: ForwardTape, d_embeddings) -> np.ndarray:
    """Exact reverse-mode gradients of every parameter, given the loss
    gradient w.r.t. the normalized embeddings, as one new vector laid out
    as ``params.flat`` (``params.layer_views`` gives its per-layer form).
    A hidden layer's ReLU passes the gradient where its output on the tape
    is positive. Neither the tape nor ``d_embeddings`` is written. A tape
    of other parameters, or of these before an ``adam_step``, raises
    ``StaleTapeError``."""
    if tape.params_ref is not params or tape.version != params.version:
        raise StaleTapeError("tape does not belong to these parameters; rerun forward")
    dE = np.asarray(d_embeddings, dtype=np.float64)
    if dE.shape != tape.pre_norm.shape:
        raise ValueError(f"gradient shape {dE.shape} does not match embeddings {tape.pre_norm.shape}")
    # normalization Jacobian: dv = (I - u u') d / ||v||, column-wise
    U = tape.pre_norm / tape.norms[None, :]
    dV = (dE - U * np.sum(U * dE, axis=0)[None, :]) / tape.norms[None, :]
    all_layers = params.all_layers()
    grads = np.empty_like(params.flat)
    grad_views = params.layer_views(grads)
    last = len(all_layers) - 1
    for i in range(last, -1, -1):
        W, _ = all_layers[i]
        gW, gb = grad_views[i]
        if i != last:
            dV *= tape.inputs[i + 1] > 0.0
        np.matmul(dV, tape.inputs[i].T, out=gW)
        np.add.reduce(dV, axis=1, out=gb)
        if i > 0:
            dV = W.T @ dV
    return grads


def adam_step(params: EncoderParams, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place,
    from ``grads`` laid out as ``params.flat`` (what ``backward`` returns).
    Every element takes m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g
    and p = p - (lr (m / c1)) / (sqrt(v / c2) + eps), with c = 1 - b^t,
    through the two ``state.scratch`` vectors. Bumps ``params.version``,
    so the tapes of earlier forward passes are stale."""
    g = np.asarray(grads, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise ValueError(f"expected a gradient of shape {params.flat.shape}, got {g.shape}")
    t = state.step + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    m, v, p = state.m, state.v, params.flat
    num, den = state.scratch
    np.multiply(m, state.beta1, out=m)
    np.multiply(g, 1.0 - state.beta1, out=num)
    np.add(m, num, out=m)
    np.multiply(v, state.beta2, out=v)
    np.multiply(g, 1.0 - state.beta2, out=num)
    np.multiply(num, g, out=num)
    np.add(v, num, out=v)
    np.divide(m, c1, out=num)
    np.multiply(num, state.lr, out=num)
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    np.add(den, state.epsilon, out=den)
    np.divide(num, den, out=num)
    np.subtract(p, num, out=p)
    state.step = t
    params.version += 1


def init_adam(params: EncoderParams, lr: float) -> AdamState:
    """Zero moments at learning rate ``lr``; AdamState's other defaults."""
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


def save_params(params: EncoderParams, fh) -> None:
    """Write the checkpoint layout documented in the module docstring."""
    fh.write(MAGIC)
    fh.write(struct.pack("<qq", len(params.layers), len(params.head)))
    for shape in params.shapes:
        fh.write(struct.pack("<qq", *shape))
    fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_params(fh) -> EncoderParams:
    """The parameters of the checkpoint layout at ``fh``'s position. A
    negative backbone layer count, a head layer count other than 2 or a
    negative layer shape raises a ValueError naming the file and the field
    before the layers are read."""
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
    name = getattr(fh, "name", "<stream>")
    n_backbone, n_head = read_struct(fh, "<qq")
    if n_backbone < 0:
        raise ValueError(f"{name}: corrupt: backbone layer count {n_backbone}, expected >= 0")
    if n_head != 2:
        raise ValueError(f"{name}: corrupt: head layer count {n_head}, expected 2")
    shapes = [read_struct(fh, "<qq") for _ in range(n_backbone + n_head)]
    if any(dim < 0 for shape in shapes for dim in shape):
        raise ValueError(f"{name}: corrupt: negative layer shape in {shapes}")
    flat = read_array(fh, "<f8", (sum(out_dim * in_dim + out_dim for out_dim, in_dim in shapes),))
    return EncoderParams.from_flat(flat, shapes, n_backbone)
