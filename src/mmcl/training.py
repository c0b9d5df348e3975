"""Outer training loop: seeded batch sampling, two-view augmentation,
per-anchor SVM solves, backprop, Adam updates, and C / sigma^2 schedules.

State checkpoint format: a header followed by the encoder checkpoint and
the Adam moments (each in the layout of the encoder weights):

    magic  b"MMTR1"
    int64  completed epochs, int64 seed
    float64 lr, beta1, beta2, epsilon; int64 adam step
    int64  number of history rows; rows of 6 little-endian float64
           (epoch, C, sigma_sq, mean_loss, knn_acc, linear_acc; NaN when
           a metric was not recorded)
    encoder checkpoint (see mmcl.encoder)
    Adam first moments, then second moments, little-endian float64 (one
    value per encoder parameter, in checkpoint order)
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import encoder as enc
from .data import AugmentationSpec, Dataset, augment_batch, read_array, read_struct, stream_rng
from .kernels import KernelSpec
from .loss import batch_loss, nce_batch_loss
from .svm import SolverConfig, _check_C_beta

STATE_MAGIC = b"MMTR1"
LOSS_KINDS = ("mmcl_pgd", "mmcl_inv", "nce")
# the ``batch_loss`` method of each max-margin loss; nce solves no dual
SOLVER_METHODS = {"mmcl_pgd": "pgd", "mmcl_inv": "inv"}
SCHEDULABLE_FIELDS = ("C", "sigma_sq")
METRICS_HEADER = "epoch,C,sigma_sq,loss,knn_acc,linear_acc"


class TrainingAbort(RuntimeError):
    """Raised when a batch produces a non-finite loss, from non-finite
    embeddings or alphas; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class TrainConfig:
    """Every setting of a run. These fields and those of the kernel, solver
    and augmentation hold every default; ``config.build_train_config``
    fills them from ``--config`` and ``--set`` for every ``mmcl`` command.
    Construction rejects a value no run can use, naming its config key.
    The batch loss is always the sum over anchors (Adam is invariant to a
    1/N scale up to epsilon)."""

    batch_size: int = 32
    epochs: int = 10
    lr: float = 1e-3
    loss: str = "mmcl_pgd"
    kernel: KernelSpec = field(default_factory=KernelSpec)
    C: float = 100.0
    beta: float = 0.1
    solver: SolverConfig = field(default_factory=SolverConfig)
    fn_correction: bool = False
    schedules: tuple = ()  # (epoch, field, value) entries
    seed: int = 0
    eval_every: int = 0
    # realization knobs beyond the core recipe
    augmentation: AugmentationSpec = AugmentationSpec(noise_sigma=0.1)
    temperature: float = 0.5
    backbone_widths: tuple = (64, 64)
    head_hidden: int = 64
    out_dim: int = 32
    eval_features: str = "backbone"  # backbone | head
    eval_k: int = 200
    probe_epochs: int = 500
    probe_lr: float = 0.1
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.eval_features not in ("backbone", "head"):
            raise ValueError(f"eval_features must be 'backbone' or 'head', got {self.eval_features!r}")
        _check_C_beta(self.C, self.beta)
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if not 0 <= self.seed < 2 ** 63:  # the MMTR1 header stores it as int64
            raise ValueError(f"seed must be in [0, 2^63), got {self.seed}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be nonnegative and finite, got {self.lr}")
        for key, width in (*(("model.backbone_widths", w) for w in self.backbone_widths),
                           ("model.head_hidden", self.head_hidden), ("model.out_dim", self.out_dim)):
            if width < 1:
                raise ValueError(f"{key} must be >= 1, got {width}")
        last = -1
        for epoch, fieldname, value in self.schedules:
            if fieldname not in SCHEDULABLE_FIELDS:
                raise ValueError(f"cannot schedule field {fieldname!r}; allowed: {SCHEDULABLE_FIELDS}")
            if epoch <= last:
                raise ValueError(f"schedule epochs must be strictly increasing, got {self.schedules}")
            last = epoch
            try:
                if fieldname == "C":
                    _check_C_beta(value, self.beta)
                else:
                    replace(self.kernel, sigma_sq=value)
            except ValueError as exc:
                raise ValueError(f"schedules entry {epoch}:{fieldname}: {exc}") from None
        if self.eval_k < 1:
            raise ValueError(f"eval.k must be >= 1, got {self.eval_k}")
        if self.probe_epochs < 1:
            raise ValueError(f"eval.probe_epochs must be >= 1, got {self.probe_epochs}")
        if not 0 < self.probe_lr < math.inf:
            raise ValueError(f"eval.probe_lr must be positive and finite, got {self.probe_lr}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"eval.test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass
class TrainState:
    params: enc.EncoderParams
    adam: enc.AdamState
    epoch: int = 0
    seed: int = 0
    history: list = field(default_factory=list)


def init_state(config: TrainConfig, in_dim: int) -> TrainState:
    params = enc.init_params(in_dim, config.backbone_widths, config.head_hidden,
                             config.out_dim, seed=config.seed)
    return TrainState(params=params, adam=enc.init_adam(params, lr=config.lr), seed=config.seed)


def apply_schedules(config: TrainConfig, epoch: int):
    """The (C, KernelSpec) in effect at ``epoch``; a schedule entry
    (e, field, value) takes effect exactly at epoch e."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    C = config.C
    spec = config.kernel
    for e, fieldname, value in config.schedules:
        if e > epoch:
            break
        if fieldname == "C":
            C = float(value)
        else:
            spec = replace(spec, sigma_sq=float(value))
    return C, spec


def check_batch_size(config: TrainConfig, dataset: Dataset) -> None:
    """ValueError naming ``batch_size`` when one batch does not fit in ``dataset``."""
    if len(dataset) < config.batch_size:
        raise ValueError(f"batch_size = {config.batch_size} exceeds the dataset's {len(dataset)} samples")


def run_epoch(state: TrainState, config: TrainConfig, dataset: Dataset):
    """Train one epoch in place of ``state``; returns (state, mean batch loss).
    Each batch ends with one ``adam_step``, which updates ``state.params``
    and ``state.adam`` in place.

    Shuffling and the two augmentation streams are derived from
    (config.seed, epoch index), and the dual solves are deterministic, so
    a given epoch is reproducible in isolation.

    For the max-margin losses each batch loss uses alpha re-solved for that
    batch (see ``batch_loss``), so the mean scales with alpha_x = alpha' 1.
    As the margin grows alpha_x shrinks, and the mean may rise toward zero
    from one epoch to the next while the Adam steps still lower the loss
    at fixed alpha that they differentiate.
    """
    check_batch_size(config, dataset)
    N = config.batch_size
    epoch = state.epoch
    C, spec = apply_schedules(config, epoch)
    order = stream_rng(config.seed, "shuffle", epoch).permutation(len(dataset))
    n_batches = len(dataset) // N
    method = SOLVER_METHODS.get(config.loss)
    losses = []
    for b in range(n_batches):
        rows = dataset.samples[order[b * N:(b + 1) * N]]
        view1 = augment_batch(config.augmentation, rows, stream_rng(config.seed, "aug", epoch, b, 0)).T
        view2 = augment_batch(config.augmentation, rows, stream_rng(config.seed, "aug", epoch, b, 1)).T
        # one encoder pass over the 2N columns of both views, which the
        # loss contrasts as one batch; the encoder maps each column alone
        emb, tape = enc.forward(state.params, np.concatenate([view1, view2], axis=1))
        emb1, emb2 = emb[:, :N], emb[:, N:]
        if config.loss == "nce":
            total, g1, g2 = nce_batch_loss(emb1, emb2, config.temperature)
            alphas = None
        else:
            total, g1, g2, alphas = batch_loss(
                emb1, emb2, spec, C, config.beta, config.solver,
                fn_correction=config.fn_correction, method=method)
        if not math.isfinite(total):
            raise TrainingAbort(
                f"non-finite loss {total} at epoch {epoch}, batch {b}",
                _abort_diagnostics(epoch, b, total, emb1, emb2, alphas))
        grads = enc.backward(state.params, tape, np.concatenate([g1, g2], axis=1))
        enc.adam_step(state.params, grads, state.adam)
        losses.append(total)
    state.epoch = epoch + 1
    return state, float(np.mean(losses))


def _abort_diagnostics(epoch, batch_index, loss_value, emb1, emb2, alphas) -> dict:
    """Where the abort happened, each view's count of embedding columns
    with a non-finite entry, and the alphas' range (NaN where any is)."""
    diag = {"epoch": epoch, "batch_index": batch_index, "loss": loss_value}
    for view, emb in (("view1", emb1), ("view2", emb2)):
        diag[f"nonfinite_columns_{view}"] = int(np.count_nonzero(~np.isfinite(emb).all(axis=0)))
    if alphas is not None:
        diag["alpha_min"] = float(alphas.min())
        diag["alpha_max"] = float(alphas.max())
        diag["alpha_mean"] = float(alphas.mean())
    return diag


def eval_embeddings(params: enc.EncoderParams, samples: np.ndarray, which: str) -> np.ndarray:
    """Row-major embeddings for evaluation: backbone features (default) or
    the normalized head output."""
    X = samples.T
    if which == "head":
        emb, _ = enc.forward(params, X)
        return emb.T
    return enc.forward_features(params, X).T


def eval_split(dataset: Dataset, seed: int, test_fraction: float):
    """Deterministic (train, test) index split of every held-out evaluation.
    Raises ValueError when held-out evaluation cannot run on it: the
    dataset has no labels, the split leaves no sample to train on, or its
    train part holds fewer than the 2 classes that the linear probe needs."""
    if dataset.labels is None:
        raise ValueError("held-out evaluation needs a labeled dataset")
    perm = stream_rng(seed, "evalsplit").permutation(len(dataset))
    n_test = max(1, int(round(test_fraction * len(dataset))))
    if n_test >= len(dataset):
        raise ValueError(f"eval.test_fraction = {test_fraction} leaves none of "
                         f"{len(dataset)} samples to train on")
    classes = np.unique(dataset.labels[perm[n_test:]]).size
    if classes < 2:
        raise ValueError(f"the linear probe needs at least 2 label classes, but its train split "
                         f"under eval.test_fraction = {test_fraction} holds {classes} label class(es)")
    return perm[n_test:], perm[:n_test]


def evaluation_split(config: TrainConfig, dataset: Dataset):
    """The ``eval_split`` of in-training evaluation, or None when training
    does not evaluate (``eval_every = 0`` or no labels)."""
    if config.eval_every == 0 or dataset.labels is None:
        return None
    return eval_split(dataset, config.seed, config.test_fraction)


def held_out_accuracies(config: TrainConfig, params: enc.EncoderParams, dataset: Dataset,
                        split) -> tuple:
    """(kNN, linear-probe) accuracy of the frozen ``params`` on ``split`` =
    (train, test) indices from ``eval_split``, under ``config``'s evaluation
    settings; in-training evaluation and ``mmcl eval`` both call this."""
    # looked up at call time, so a wrapper put on mmcl.evaluate's names applies
    from .evaluate import knn_readout, linear_probe

    train_idx, test_idx = split
    emb_train = eval_embeddings(params, dataset.samples[train_idx], config.eval_features)
    emb_test = eval_embeddings(params, dataset.samples[test_idx], config.eval_features)
    knn_acc = knn_readout(emb_train, dataset.labels[train_idx],
                          emb_test, dataset.labels[test_idx], k=config.eval_k)
    linear_acc = linear_probe(emb_train, dataset.labels[train_idx],
                              emb_test, dataset.labels[test_idx],
                              epochs=config.probe_epochs, lr=config.probe_lr)
    return knn_acc, linear_acc


def train(config: TrainConfig, dataset: Dataset, state: TrainState = None,
          on_epoch=None) -> TrainState:
    """Run (or resume) training for ``config.epochs`` total epochs.

    A resumed ``state`` must come from a run under the same ``seed`` and
    ``lr``: the seed derives every shuffle and augmentation stream, and
    Adam takes its step size from the state, so another value would
    continue neither run. ValueError names the key that differs.

    ``on_epoch`` receives each history row as it is produced. Evaluation
    runs every ``eval_every`` epochs on a held-out split when the dataset
    has labels (``evaluation_split``), and a split it cannot run on is
    rejected before the first epoch.

    The ``mean_loss`` history column (the ``loss`` column of the metrics
    CSV) is the mean batch loss from ``run_epoch``: for the max-margin
    losses it uses alpha re-solved per batch, scales with alpha_x, and may
    rise toward zero while training works.
    """
    split = evaluation_split(config, dataset)
    if state is None:
        state = init_state(config, dataset.dim)
    for key, resumed, configured in (("seed", state.seed, config.seed), ("lr", state.adam.lr, config.lr)):
        if resumed != configured:
            raise ValueError(f"cannot resume: the state has {key} = {resumed!r}, "
                             f"the config {key} = {configured!r}")
    while state.epoch < config.epochs:
        C, spec = apply_schedules(config, state.epoch)
        epoch_index = state.epoch
        state, mean_loss = run_epoch(state, config, dataset)
        knn_acc = linear_acc = math.nan
        if split is not None and (epoch_index + 1) % config.eval_every == 0:
            knn_acc, linear_acc = held_out_accuracies(config, state.params, dataset, split)
        row = (epoch_index, C, spec.sigma_sq, mean_loss, knn_acc, linear_acc)
        state.history.append(row)
        if on_epoch is not None:
            on_epoch(row)
    return state


def format_metrics_row(row) -> str:
    epoch, C, sigma_sq, loss_value, knn_acc, linear_acc = row
    cells = [str(int(epoch)), repr(float(C)), repr(float(sigma_sq)), repr(float(loss_value))]
    for v in (knn_acc, linear_acc):
        cells.append("" if math.isnan(v) else repr(float(v)))
    return ",".join(cells)


def save_state(state: TrainState, path) -> None:
    """Atomic (write-temp-then-rename) checkpoint of the full train state."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(STATE_MAGIC)
            fh.write(struct.pack("<qq", state.epoch, state.seed))
            fh.write(struct.pack("<ddddq", state.adam.lr, state.adam.beta1,
                                 state.adam.beta2, state.adam.epsilon, state.adam.step))
            fh.write(struct.pack("<q", len(state.history)))
            for row in state.history:
                fh.write(struct.pack("<6d", *[float(v) for v in row]))
            enc.save_params(state.params, fh)
            for moment in (state.adam.m, state.adam.v):
                fh.write(np.ascontiguousarray(moment, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path) -> TrainState:
    """The train state that ``save_state`` wrote to ``path``. Raises
    ValueError naming the file and the field when a header field is out of
    range: a negative epoch, seed, Adam step or history count, an lr that
    is negative or not finite, a beta1 or beta2 outside [0, 1), or an
    epsilon that is not positive and finite."""
    with open(path, "rb") as fh:
        magic = fh.read(len(STATE_MAGIC))
        if magic != STATE_MAGIC:
            raise ValueError(f"{path}: bad train-state magic {magic!r}")
        epoch, seed = read_struct(fh, "<qq")
        lr, beta1, beta2, epsilon, step = read_struct(fh, "<ddddq")
        (n_rows,) = read_struct(fh, "<q")
        for name, value, valid, expected in (
                ("epoch", epoch, epoch >= 0, ">= 0"),
                ("seed", seed, seed >= 0, "in [0, 2^63)"),
                ("lr", lr, 0 <= lr < math.inf, "finite and >= 0"),
                ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
                ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
                ("epsilon", epsilon, 0 < epsilon < math.inf, "finite and > 0"),
                ("Adam step", step, step >= 0, ">= 0"),
                ("history count", n_rows, n_rows >= 0, ">= 0")):
            if not valid:
                raise ValueError(f"{path}: train-state {name} = {value!r}, expected {expected}")
        history = [read_struct(fh, "<6d") for _ in range(n_rows)]
        params = enc.load_params(fh)
        m, v = [read_array(fh, "<f8", params.flat.shape) for _moment in range(2)]
    adam = enc.AdamState(m=m, v=v, step=step, lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
    return TrainState(params=params, adam=adam, epoch=epoch, seed=seed,
                      history=[(int(r[0]),) + r[1:] for r in history])


def load_checkpoint_params(path) -> enc.EncoderParams:
    """The encoder parameters of ``path``, a train state (``save_state``,
    magic ``STATE_MAGIC``) or an encoder checkpoint (``encoder.save_params``,
    magic ``encoder.MAGIC``, of the same length). Raises ValueError naming
    the file and both magics when it is neither."""
    with open(path, "rb") as fh:
        magic = fh.read(len(STATE_MAGIC))
        if magic == enc.MAGIC:
            fh.seek(0)
            return enc.load_params(fh)
    if magic == STATE_MAGIC:
        return load_state(path).params
    raise ValueError(f"{path}: not a checkpoint: magic {magic!r}, expected {STATE_MAGIC!r} "
                     f"(train state) or {enc.MAGIC!r} (encoder)")
