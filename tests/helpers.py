"""Shared test utilities: finite differences, random instance builders,
recorded training batches, reference solver steps, the reference encoder
and InfoNCE passes, the layer-wise backward, Adam step and state writer,
and reference readouts and probe fits."""

import struct
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from mmcl import KernelSpec, build_instance
from mmcl import config as cfgmod
from mmcl import encoder, training
from mmcl.encoder import MAGIC, NORM_FLOOR, EncoderParams, StaleTapeError
from mmcl.loss import negative_indices
from mmcl.training import STATE_MAGIC


def _to_block(neg_idx: np.ndarray, values) -> np.ndarray:
    """N x 2N block with row k of ``values`` at anchor k's negatives
    ``neg_idx[k]`` and 0 at its own columns k and N+k."""
    N = neg_idx.shape[0]
    block = np.zeros((N, 2 * N))
    np.put_along_axis(block, neg_idx, values, axis=1)
    return block


def rel_err(a, b, floor=1e-12) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)


def central_diff(f, x, h=1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def unit_columns(rng, d, n) -> np.ndarray:
    X = rng.standard_normal((d, n))
    return X / np.linalg.norm(X, axis=0, keepdims=True)


def random_instance(rng, n, C=100.0, beta=0.1, sigma_sq=None, d=8):
    """Random reduced-dual instance from unit embeddings and an RBF kernel."""
    if sigma_sq is None:
        sigma_sq = float(rng.uniform(0.25, 4.0))
    spec = KernelSpec(kind="rbf", sigma_sq=sigma_sq)
    z_pos = unit_columns(rng, d, 1)[:, 0]
    Z_neg = unit_columns(rng, d, n)
    return build_instance(spec, z_pos, Z_neg, C, beta)


def rotated_spectrum_delta(rng, eigenvalues) -> np.ndarray:
    """Symmetric matrix with the given spectrum under a random rotation."""
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    n = eigenvalues.size
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * eigenvalues) @ Q.T


def anchor_deltas(v1, v2, spec, beta) -> np.ndarray:
    """(N, 2N-2, 2N-2) stack of every anchor's dual matrix D_k, each rebuilt
    from its embeddings by ``build_instance``: anchor k's positive is
    column k of view 1, its negatives the other columns of both views in
    ``negative_indices`` order. A per-anchor reference for the batched
    solvers, which never build this stack."""
    E = np.concatenate([v1, v2], axis=1)
    return np.stack([build_instance(spec, E[:, k], E[:, cols], 1.0, beta).delta
                     for k, cols in enumerate(negative_indices(v1.shape[1]))])


class RecordingOperator:
    """A ``svm._pgd_batched`` operator that keeps every input A and product
    D A it makes, from which each instance's objective trace is rebuilt."""

    def __init__(self, matvec):
        self.matvec = matvec
        self.calls = []

    def __call__(self, A):
        Q = self.matvec(A)
        self.calls.append((A.copy(), Q.copy()))
        return Q

    def traces(self, b, iterations):
        """Row i's objectives 1/2 a'Da - b_i'a at its first iterations[i] + 1
        operator inputs: its start, then the point of every step it took
        (an instance steps on every product until it freezes)."""
        objectives = np.stack([0.5 * np.sum(A * Q, axis=1) - np.sum(b * A, axis=1) for A, Q in self.calls])
        return [objectives[:m + 1, i] for i, m in enumerate(iterations)]


def training_batches(seed, count):
    """Yield the (view1, view2) embeddings of the first ``count`` loss calls
    of a seeded ``mmcl_pgd`` training run at batch size 32 on the default
    synthetic blobs, as the ``pgd_b32`` benchmark workload trains: no data
    file, and the encoder moves between batches as in training."""
    cfg = cfgmod.default_config()
    cfgmod.apply_overrides(cfg, ["loss=mmcl_pgd", "batch_size=32", f"seed={seed}",
                                 f"data.seed={seed}", "epochs=1000"])
    config, dataset = cfgmod.build_train_config(cfg), cfgmod.load_dataset(cfg)
    pairs = []
    batch_loss = training.batch_loss

    class Enough(Exception):
        pass

    def recording(view1, view2, *args, **kwargs):
        pairs.append((view1.copy(), view2.copy()))
        if len(pairs) == count:
            raise Enough
        return batch_loss(view1, view2, *args, **kwargs)

    training.batch_loss = recording
    try:
        training.train(config, dataset)
    except Enough:
        pass
    finally:
        training.batch_loss = batch_loss
    yield from pairs


def face_search_reference(gather, alpha, g, rows, free, C, pad_to, steps=10):
    """Reference for ``svm._face_steps``: each row alone, its free set F
    padded with an identity block to the multiple of ``pad_to`` at or
    above |F| (at most n), searching t = 1, 1/2, ..., 0.5^(steps - 1) in
    that order and taking the first step whose change g_F's + 1/2 s'D_FF s
    is at most 1e-4 g_F's < 0. Returns the accepting rows and their
    points."""
    n = alpha.shape[1]
    accepted, points = [], []
    for i in rows:
        F = np.flatnonzero(free[i])
        f = min(-(-F.size // pad_to) * pad_to, n)
        cols = np.concatenate([F, np.flatnonzero(~free[i])])[:f]
        block = gather(np.array([i]), cols[None])[0]
        block[F.size:] = 0.0
        block[:, F.size:] = 0.0
        block[F.size:, F.size:] = np.eye(f - F.size)
        g_F = np.where(np.arange(f) < F.size, g[i, cols], 0.0)
        try:
            d = np.linalg.solve(block, -g_F[:, None])[:, 0]
        except np.linalg.LinAlgError:
            continue
        for t in 0.5 ** np.arange(steps):
            trial = np.clip(alpha[i, cols] + t * d, 0.0, C)
            s = trial - alpha[i, cols]
            gs = s @ g_F
            if gs < 0.0 and gs + 0.5 * s @ (block @ s) <= 1e-4 * gs:
                point = alpha[i].copy()
                point[cols] = trial
                accepted.append(i)
                points.append(point)
                break
    return np.array(accepted, dtype=np.int64), np.array(points).reshape(-1, n)


def forward_reference(params, X):
    """Reference for ``encoder.forward``: a fresh array at every step, and a
    tape that also keeps each layer's pre-activation. Returns (E, tape)."""
    inputs, preacts = [], []
    H = np.asarray(X, dtype=np.float64)
    all_layers = params.all_layers()
    last = len(all_layers) - 1
    for i, (W, b) in enumerate(all_layers):
        inputs.append(H)
        V = W @ H + b[:, None]
        preacts.append(V)
        H = V if i == last else np.maximum(V, 0.0)
    norms = np.maximum(np.linalg.norm(H, axis=0), NORM_FLOOR)
    return H / norms[None, :], SimpleNamespace(inputs=inputs, preacts=preacts, pre_norm=H, norms=norms)


def backward_reference(params, tape, d_embeddings):
    """Reference for ``encoder.backward`` on a ``forward_reference`` tape:
    the ReLU masks from the pre-activations, a fresh array at every step."""
    dE = np.asarray(d_embeddings, dtype=np.float64)
    U = tape.pre_norm / tape.norms[None, :]
    dV = (dE - U * np.sum(U * dE, axis=0)[None, :]) / tape.norms[None, :]
    all_layers = params.all_layers()
    grads = [None] * len(all_layers)
    last = len(all_layers) - 1
    for i in range(last, -1, -1):
        W, _ = all_layers[i]
        if i != last:
            dV = dV * (tape.preacts[i] > 0.0)
        grads[i] = (dV @ tape.inputs[i].T, np.sum(dV, axis=1))
        if i > 0:
            dV = W.T @ dV
    return grads


@dataclass
class LayerwiseAdamState:
    """Adam state of the layer-wise step: one (weight, bias) pair of
    moment arrays per layer."""

    m: list
    v: list
    lr: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def layerwise_zeros(params) -> list:
    return [(np.zeros_like(W), np.zeros_like(b)) for W, b in params.all_layers()]


def backward_layerwise(params, tape, d_embeddings) -> list:
    """Reference for ``encoder.backward``: a fresh (weight, bias) gradient
    pair per layer, from the tape of ``encoder.forward``."""
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


def adam_step_layerwise(params, grads: list, state: LayerwiseAdamState):
    """Reference for ``encoder.adam_step``: one bias-corrected Adam update,
    layer by layer, in fresh arrays; returns (new params, new state)."""
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


def layerwise_flat(pairs) -> np.ndarray:
    """(weight, bias) pairs concatenated in checkpoint order."""
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


def write_state_layerwise(state, fh) -> None:
    """Reference for the bytes of ``training.save_state``: the header, the
    encoder checkpoint and the moments, each written array by array from
    the (weight, bias) pairs of ``state.params.all_layers()`` and of
    ``state.adam.m`` and ``state.adam.v``."""
    fh.write(STATE_MAGIC)
    fh.write(struct.pack("<qq", state.epoch, state.seed))
    fh.write(struct.pack("<ddddq", state.adam.lr, state.adam.beta1,
                         state.adam.beta2, state.adam.epsilon, state.adam.step))
    fh.write(struct.pack("<q", len(state.history)))
    for row in state.history:
        fh.write(struct.pack("<6d", *[float(v) for v in row]))
    params = state.params
    all_layers = params.all_layers()
    fh.write(MAGIC)
    fh.write(struct.pack("<qq", len(params.layers), len(params.head)))
    for W, _ in all_layers:
        fh.write(struct.pack("<qq", W.shape[0], W.shape[1]))
    for W, b in all_layers:
        fh.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    for buffers in (state.adam.m, state.adam.v):
        for mW, mb in buffers:
            fh.write(np.ascontiguousarray(mW, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(mb, dtype="<f8").tobytes())


def train_layerwise(monkeypatch, config, dataset, state):
    """``training.train`` from ``state`` with ``encoder.backward`` and
    ``encoder.adam_step`` replaced by the layer-wise references. Each step's
    new parameters are copied into ``state.params`` (and its version
    bumped), so the loop runs unchanged; the layer-wise Adam state, which
    takes the place of ``state.adam``, is returned."""
    adam = [LayerwiseAdamState(m=layerwise_zeros(state.params), v=layerwise_zeros(state.params),
                               lr=state.adam.lr)]

    def adam_step(params, grads, _flat_state):
        new_params, adam[0] = adam_step_layerwise(params, grads, adam[0])
        params.flat[...] = new_params.flat
        params.version += 1

    with monkeypatch.context() as patch:
        patch.setattr(encoder, "backward", backward_layerwise)
        patch.setattr(encoder, "adam_step", adam_step)
        training.train(config, dataset, state)
    return adam[0]


def nce_batch_loss_reference(embeddings_view1, embeddings_view2, temperature):
    """Reference for ``loss.nce_batch_loss``: the scores divided by the
    temperature after the GEMM, and the shifted scores, their exponentials
    and the gradient w.r.t. the inner products each in an array of their
    own."""
    N = embeddings_view1.shape[1]
    E = np.concatenate([embeddings_view1, embeddings_view2], axis=1)
    inner = E[:, N:].T @ E
    scores = inner / temperature
    rows = np.arange(N)
    scores[rows, N + rows] = -np.inf
    m = np.max(scores, axis=1, keepdims=True)
    e = np.exp(scores - m)
    denom = np.sum(e, axis=1)
    total = float(np.sum(m[:, 0] + np.log(denom) - scores[rows, rows]))
    G = e / denom[:, None]
    G[rows, rows] -= 1.0
    G /= temperature
    d_anchor, d_E = E @ G.T, E[:, N:] @ G
    d_E[:, N:] += d_anchor
    return total, d_E[:, :N].copy(), d_E[:, N:].copy()


def knn_readout_reference(train_emb, train_labels, test_emb, test_labels, k):
    """Reference for ``evaluate.knn_readout``: the same cosine similarities,
    the first k neighbours of a stable sort (the lowest train indices among
    rows tied at the k-th similarity), voted on one test row at a time; a
    vote tie goes to the tied class with the largest summed similarity, the
    first such class on an exact tie."""
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    n_train = train_emb.shape[0]
    if k > n_train:
        warnings.warn(f"k={k} exceeds train size {n_train}; clipping", stacklevel=2)
        k = n_train

    def normalize(X):
        return X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)

    sims = normalize(test_emb) @ normalize(train_emb).T
    num_classes = int(train_labels.max()) + 1
    correct = 0
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    for i in range(test_emb.shape[0]):
        idx = top[i]
        labels = train_labels[idx]
        votes = np.bincount(labels, minlength=num_classes)
        tied = np.nonzero(votes == votes.max())[0]
        if tied.size == 1:
            pred = tied[0]
        else:
            sim_sums = np.bincount(labels, weights=sims[i, idx], minlength=num_classes)
            pred = tied[np.argmax(sim_sums[tied])]
        correct += int(pred == test_labels[i])
    return correct / test_emb.shape[0]


def linear_probe_reference(train_emb, train_labels, epochs, lr):
    """Reference for ``evaluate.fit_linear_probe``: full-batch gradient
    descent on the mean cross-entropy from zero, sample-major, with the
    bias kept apart. Returns (W (d x c), b (c,)), c = max label + 1."""
    X = np.asarray(train_emb, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    num_classes = int(y.max()) + 1
    n, d = X.shape
    W = np.zeros((d, num_classes))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(epochs):
        logits = X @ W + b
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        probs = expl / expl.sum(axis=1, keepdims=True)
        err = (probs - onehot) / n
        W -= lr * (X.T @ err)
        b -= lr * err.sum(axis=0)
    return W, b


def forward_features_reference(params, X):
    """Reference for ``encoder.forward_features``: a fresh array for the
    product, the bias sum and the ReLU of every layer."""
    H = np.asarray(X, dtype=np.float64)
    for W, b in params.layers:
        H = np.maximum(W @ H + b[:, None], 0.0)
    return H


def knn_readout_negated_product(train_emb, train_labels, test_emb, test_labels, k):
    """Reference for ``evaluate.knn_readout``: the same vote, on the
    n_test x n_train similarity product negated in place after the GEMM."""
    train_emb = np.asarray(train_emb, dtype=np.float64)
    test_emb = np.asarray(test_emb, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    n_train, n_test = train_emb.shape[0], test_emb.shape[0]
    if k > n_train:
        warnings.warn(f"k={k} exceeds train size {n_train}; clipping", stacklevel=2)
        k = n_train

    def normalize(X):
        return X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)

    neg_sims = normalize(test_emb) @ normalize(train_emb).T
    np.negative(neg_sims, out=neg_sims)
    num_classes = int(train_labels.max()) + 1
    top = np.argpartition(neg_sims, kth=k - 1, axis=1)[:, :k]
    top_sims = np.take_along_axis(neg_sims, top, axis=1)
    cut = np.nonzero(np.count_nonzero(neg_sims <= top_sims.max(axis=1, keepdims=True), axis=1) > k)[0]
    if cut.size:
        top[cut] = np.argsort(neg_sims[cut], axis=1, kind="stable")[:, :k]
        top_sims[cut] = np.take_along_axis(neg_sims[cut], top[cut], axis=1)
    bins = train_labels[top]
    bins += num_classes * np.arange(n_test)[:, None]
    size = n_test * num_classes
    votes = np.bincount(bins.ravel(), minlength=size).reshape(n_test, num_classes)
    sim_sums = -np.bincount(bins.ravel(), weights=top_sims.ravel(),
                            minlength=size).reshape(n_test, num_classes)
    tied = votes == votes.max(axis=1, keepdims=True)
    preds = np.argmax(np.where(tied, sim_sums, -np.inf), axis=1)
    return int(np.count_nonzero(preds == test_labels)) / n_test


def fit_linear_probe_allocating(train_emb, train_labels, epochs, lr):
    """Reference for ``evaluate.fit_linear_probe``: the same class-major
    steps, each making a fresh weight step and transposed-features view and
    scaling by lr / n recomputed. Returns (W (d x c), b (c,))."""
    X = np.asarray(train_emb, dtype=np.float64)
    y = np.asarray(train_labels, dtype=np.int64)
    num_classes = int(y.max()) + 1
    n, d = X.shape
    Xa = np.empty((d + 1, n))
    Xa[:d] = X.T
    Xa[d] = 1.0
    onehot = np.zeros((num_classes, n))
    onehot[y, np.arange(n)] = 1.0
    Wb = np.zeros((num_classes, d + 1))
    logits = np.empty((num_classes, n))
    peak = np.empty(n)
    total = np.empty(n)
    for _ in range(epochs):
        np.matmul(Wb, Xa, out=logits)
        np.max(logits, axis=0, out=peak)
        logits -= peak
        np.exp(logits, out=logits)
        np.sum(logits, axis=0, out=total)
        logits /= total
        logits -= onehot
        Wb -= (lr / n) * (logits @ Xa.T)
    return Wb[:, :d].T, Wb[:, d]
