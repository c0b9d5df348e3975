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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .data import read_array, read_struct

MAGIC = b"MMCL1"
NORM_FLOOR = 1e-12  # guards against near-zero pre-normalization vectors


class StaleTapeError(RuntimeError):
    """The tape was produced by a different forward pass than the one
    being differentiated."""


@dataclass
class EncoderParams:
    """Backbone and projection-head weights; ``layers`` and ``head`` are
    lists of (weight, bias) pairs."""

    layers: list
    head: list

    def __post_init__(self):
        expected_in = None
        for W, b in self.layers + self.head:
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ValueError(f"bad layer shapes W {W.shape}, b {b.shape}")
            if expected_in is not None and W.shape[1] != expected_in:
                raise ValueError(f"layer shapes do not chain: expected in={expected_in}, got {W.shape}")
            expected_in = W.shape[0]
        if len(self.head) != 2:
            raise ValueError(f"projection head must have exactly 2 layers, got {len(self.head)}")

    def all_layers(self) -> list:
        return self.layers + self.head

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1] if self.layers else self.head[0][0].shape[1]


@dataclass
class ForwardTape:
    """What ``backward`` needs of one forward pass: each layer's input (the
    batch, then every hidden layer's ReLU output, from which ``backward``
    reads the ReLU masks, since relu(v) > 0 exactly where v > 0), the
    last layer's output before normalization, and its column norms."""

    inputs: list
    pre_norm: np.ndarray
    norms: np.ndarray
    params_ref: object = field(repr=False, default=None)


@dataclass
class AdamState:
    m: list
    v: list
    lr: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


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
    tape = ForwardTape(inputs=inputs, pre_norm=H, norms=norms, params_ref=params)
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


def backward(params: EncoderParams, tape: ForwardTape, d_embeddings) -> list:
    """Exact reverse-mode gradients for every (weight, bias) pair, given the
    loss gradient w.r.t. the normalized embeddings. A hidden layer's ReLU
    passes the gradient where its output on the tape is positive. Neither
    the tape nor ``d_embeddings`` is written."""
    if tape.params_ref is not params:
        raise StaleTapeError("tape does not belong to these parameters; rerun forward")
    dE = np.asarray(d_embeddings, dtype=np.float64)
    if dE.shape != tape.pre_norm.shape:
        raise ValueError(f"gradient shape {dE.shape} does not match embeddings {tape.pre_norm.shape}")
    # normalization Jacobian: dv = (I - u u') d / ||v||, column-wise
    U = tape.pre_norm / tape.norms[None, :]
    dV = (dE - U * np.sum(U * dE, axis=0)[None, :]) / tape.norms[None, :]
    all_layers = params.all_layers()
    grads = [None] * len(all_layers)
    last = len(all_layers) - 1
    for i in range(last, -1, -1):
        W, _ = all_layers[i]
        if i != last:
            dV *= tape.inputs[i + 1] > 0.0
        grads[i] = (dV @ tape.inputs[i].T, np.sum(dV, axis=1))
        if i > 0:
            dV = W.T @ dV
    return grads


def adam_step(params: EncoderParams, grads: list, state: AdamState):
    """One bias-corrected Adam update; returns (new params, new state)."""
    all_layers = params.all_layers()
    if len(grads) != len(all_layers):
        raise ValueError(f"expected {len(all_layers)} gradient pairs, got {len(grads)}")
    t = state.step + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    new_layers, new_m, new_v = [], [], []
    for (W, b), (gW, gb), (mW, mb), (vW, vb) in zip(all_layers, grads, state.m, state.v):
        mW = state.beta1 * mW + (1.0 - state.beta1) * gW
        mb = state.beta1 * mb + (1.0 - state.beta1) * gb
        vW = state.beta2 * vW + (1.0 - state.beta2) * gW * gW
        vb = state.beta2 * vb + (1.0 - state.beta2) * gb * gb
        W = W - state.lr * (mW / c1) / (np.sqrt(vW / c2) + state.epsilon)
        b = b - state.lr * (mb / c1) / (np.sqrt(vb / c2) + state.epsilon)
        new_layers.append((W, b))
        new_m.append((mW, mb))
        new_v.append((vW, vb))
    n_backbone = len(params.layers)
    new_params = EncoderParams(layers=new_layers[:n_backbone], head=new_layers[n_backbone:])
    return new_params, replace(state, m=new_m, v=new_v, step=t)


def init_adam(params: EncoderParams, lr: float) -> AdamState:
    """Zero moments at learning rate ``lr``; AdamState's other defaults."""
    return AdamState(m=zero_grads(params), v=zero_grads(params), lr=lr)


def zero_grads(params: EncoderParams) -> list:
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in params.all_layers()]


def save_params(params: EncoderParams, fh) -> None:
    """Write the checkpoint layout documented in the module docstring."""
    all_layers = params.all_layers()
    fh.write(MAGIC)
    fh.write(struct.pack("<qq", len(params.layers), len(params.head)))
    for W, _ in all_layers:
        fh.write(struct.pack("<qq", W.shape[0], W.shape[1]))
    for W, b in all_layers:
        fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(fh) -> EncoderParams:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
    n_backbone, n_head = read_struct(fh, "<qq")
    shapes = [read_struct(fh, "<qq") for _ in range(n_backbone + n_head)]
    pairs = [(read_array(fh, "<f8", (out_dim, in_dim)), read_array(fh, "<f8", (out_dim,)))
             for out_dim, in_dim in shapes]
    return EncoderParams(layers=pairs[:n_backbone], head=pairs[n_backbone:])
