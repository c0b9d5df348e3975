"""One run of one workload, in the fresh process ``run.py`` starts after
pinning the BLAS thread count.

The run builds the workload's config the way ``mmcl train`` does (defaults,
then ``key=value`` overrides, then ``build_train_config`` and
``load_dataset``) and calls ``training.train``. It prints ``READY`` once
set-up, including one untimed warm-up step, is done; trains until an epoch
ends after ``--seconds``, evaluating after every epoch; checks the sampled
steps' outputs outside the timed region; and prints one JSON line
of raw figures as its last line. ``--setup-only`` exits at ``READY``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np
import scipy

from mmcl import config as mconfig
from mmcl import evaluate as mevaluate
from mmcl import loss as mloss
from mmcl import training as mtraining
from mmcl.data import stream_rng
from mmcl.kernels import KernelSpec
from mmcl import svm
from mmcl.svm import SolverConfig

import catalog
import checks
import tracing

# metric -> span whose per-step (or per-evaluation) total it reports
STEP_SPANS = {
    "loss.assemble_ms": "loss.assemble",
    "svm.solve_ms.inv": "svm.solve.inv",
    "svm.solve_ms.pgd": "svm.solve.pgd",
    "svm.step_size_ms": "svm.step_size",
    "loss.accumulate_ms": "loss.accumulate",
    "loss.nce_ms": "loss.nce",
    "kernels.gram_ms": "kernels.gram",
    "data.augment_ms": "data.augment",
    "encoder.forward_ms": "encoder.forward",
    "encoder.backward_ms": "encoder.backward",
    "encoder.adam_ms": "encoder.adam",
}
EVAL_SPANS = {
    "evaluate.embed_ms": "evaluate.embed",
    "evaluate.knn_ms": "evaluate.knn",
    "evaluate.probe_ms": "evaluate.probe",
}
ALLOC_REPLAYS = 3  # checked loss calls replayed under tracemalloc
SWEEP_DIM = 16  # embedding dimension of the scaling sweep, as ``mmcl bench``


class _Stop(Exception):
    """Ends training once set-up is done (``--setup-only``) or at the first
    epoch boundary after the time budget."""


def build(workload: catalog.Workload, seed: int):
    cfg = mconfig.default_config()
    mconfig.apply_overrides(cfg, list(workload.overrides) + [
        f"seed={seed}", f"data.seed={seed}", f"epochs={catalog.EPOCH_CAP}"])
    return mconfig.build_train_config(cfg), mconfig.load_dataset(cfg)


def evaluate(config, dataset, state):
    """Held-out (kNN, probe) accuracies, through the same functions and the
    same split as in-training evaluation."""
    train_idx, test_idx = mtraining.eval_split(dataset, config.seed, config.test_fraction)
    labels = dataset.labels
    emb_train = mtraining.eval_embeddings(state.params, dataset.samples[train_idx], config.eval_features)
    emb_test = mtraining.eval_embeddings(state.params, dataset.samples[test_idx], config.eval_features)
    knn = mevaluate.knn_readout(emb_train, labels[train_idx], emb_test, labels[test_idx], k=config.eval_k)
    linear = mevaluate.linear_probe(emb_train, labels[train_idx], emb_test, labels[test_idx],
                                    epochs=config.probe_epochs, lr=config.probe_lr)
    return knn, linear


def scaling_sweep(method: str, sizes, seed: int):
    """Fitted log-log slope of ``batch_loss`` time over N on seeded
    unit-norm embeddings, with the per-size median times in ms."""
    spec = KernelSpec(kind="rbf", sigma_sq=1.0)
    solver = SolverConfig(step_size="auto", max_iters=1000, tol=1e-8, nesterov=True, seed=0)
    medians = {}
    for N in sizes:
        rng = stream_rng(seed, "bench", N)
        views = [rng.standard_normal((SWEEP_DIM, N)) for _ in range(2)]
        v1, v2 = (v / np.linalg.norm(v, axis=0, keepdims=True) for v in views)
        times = []
        begin = perf_counter()
        while len(times) < 5 and (not times or perf_counter() - begin < 1.0):
            t0 = perf_counter()
            mloss.batch_loss(v1, v2, spec, 100.0, 0.1, solver, method=method)
            times.append(perf_counter() - t0)
        medians[N] = statistics.median(times) * 1e3
    slope = float(np.polyfit(np.log(list(medians)), np.log(list(medians.values())), 1)[0])
    return slope, medians


def alloc_peak_mb(kind: str, args, kwargs) -> float:
    """tracemalloc peak across one replayed loss call. Tracing every
    allocation slows PGD several-fold, so it never runs in a timed step."""
    fn = mtraining.nce_batch_loss if kind == "nce" else mtraining.batch_loss
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    11th-largest value) and that percentile; the maximum with fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return (ordered[-1], 100.0 * (n - 1) / n) if n else (0.0, 0.0)


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def run(args) -> dict:
    workload = catalog.WORKLOADS[args.workload]
    config, dataset = build(workload, args.seed)
    state = mtraining.init_state(config, dataset.dim)
    window = {}

    def on_step_end(next_index):
        if next_index == 0:
            print("READY", flush=True)
            if args.setup_only:
                raise _Stop
            window["start"] = perf_counter()

    def on_epoch(row):
        # Training that does not evaluate is evaluated by the benchmark after
        # every epoch, so evaluation times are sampled across the whole run.
        window["accuracy"] = row[4:6] if config.eval_every else evaluate(config, dataset, state)
        if "start" in window and perf_counter() - window["start"] >= args.seconds:
            window["end"] = perf_counter()
            raise _Stop

    rec = tracing.Recorder(traced=bool(args.trace), on_step_end=on_step_end)
    captured = []  # (step index, kind, args, kwargs, outputs) of checked steps
    selected = []  # alphas of the traced steps

    def on_loss(kind, a, kw, out):
        if catalog.is_checked_step(rec.step_index):
            captured.append((rec.step_index, kind, a, kw, out))
        if rec.active and kind == "mmcl":
            selected.append(out[3])

    hooks = tracing.install(rec, on_loss)
    error = None
    try:
        try:
            mtraining.train(config, dataset, state, on_epoch=on_epoch)
        except _Stop:
            pass
        except Exception as exc:  # a raising step is a measured failure
            error = f"{type(exc).__name__}: {exc}"
            if "start" not in window:
                raise
            window["end"] = perf_counter()
        if args.setup_only:
            return {}
        if "accuracy" not in window:  # failed within the first epoch
            window["accuracy"] = evaluate(config, dataset, state)
    finally:
        hooks.remove()

    N = config.batch_size
    failures = {}
    unsolved = anchors_checked = 0
    gaps, unconverged = [], []
    for index, kind, a, kw, out in captured:
        if kind == "nce":
            result = checks.check_nce(a, kw, out)
        else:
            result = checks.check_mmcl(a, kw, out, inv_oracle=rec.traced)
        if not result.ok:
            failures[index] = result.failures
        anchors_checked += result.anchors_checked
        unsolved += result.anchors_unsolved
        gaps += result.gaps
        unconverged += result.unconverged
    attempted = len(rec.steps) + (error is not None)
    failed = len(failures) + (error is not None)

    metrics = {}

    def put(name, samples, reduce=statistics.median):
        """A metric's value and sample count; 0 with no samples (absent)."""
        metrics[name] = [float(reduce(samples)) if len(samples) else 0.0, len(samples)]

    step_ms = [s * 1e3 for s, *_ in rec.steps]
    train_s = window["end"] - window["start"] - sum(s for s, _ in rec.evals)
    knn_acc, linear_acc = window["accuracy"]
    tail_ms, tail_pct = tail(step_ms)
    put("train_samples_per_s", [N * len(rec.steps) / train_s])
    put("step_ms_p50", step_ms)
    put("step_ms_tail", step_ms, lambda _: tail_ms)
    put("eval_ms_p50", [s * 1e3 for s, _ in rec.evals])
    put("peak_rss_mb", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    put("knn_acc", [knn_acc])
    put("linear_acc", [linear_acc])
    put("passed_frac", [True] * (attempted - failed) + [False] * failed, statistics.fmean)
    metrics["solved_frac"] = [1.0 - unsolved / anchors_checked if anchors_checked else 1.0,
                              anchors_checked]

    if rec.traced:
        traced = [(totals, selfs) for _, on, totals, selfs in rec.steps if on]
        for name, span in STEP_SPANS.items():
            put(name, [totals[span] * 1e3 for totals, _ in traced if span in totals])
        for name, span in EVAL_SPANS.items():
            put(name, [totals[span] * 1e3 for _, totals in rec.evals if span in totals])
        put("loss.self_ms", [(selfs.get("loss", 0.0) + selfs.get("loss.nce", 0.0)) * 1e3
                             for _, selfs in traced])
        put("training.self_ms", [selfs["step"] * 1e3 for _, selfs in traced])
        put("loss.alloc_peak_mb", [alloc_peak_mb(kind, a, kw)
                                   for _, kind, a, kw, _ in captured[:ALLOC_REPLAYS]])
        iterations = np.concatenate(rec.pgd_iterations) if rec.pgd_iterations else []
        put("svm.pgd_iters_mean", iterations, np.mean)
        put("svm.pgd_iters_max", iterations, np.max)
        put("svm.unconverged_frac", unconverged, np.mean)
        put("svm.dual_gap_rel", gaps, np.mean)
        labels = np.concatenate([svm.classify_support(a, config.C) for alphas in selected
                                 for a in alphas]) if selected else []
        put("svm.zero_frac", labels, lambda x: np.mean(x == 0))
        put("svm.support_frac", labels, lambda x: np.mean(x == 1))
        put("svm.violator_frac", labels, lambda x: np.mean(x == 2))
        put("svm.alpha_x_mean", [float(np.sum(a)) for alphas in selected for a in alphas],
            statistics.fmean)
        plain = [s for s, on, *_ in rec.steps if not on]
        with_spans = [s for s, on, *_ in rec.steps if on]
        put("trace.overhead_frac", [1.0 - statistics.fmean(plain) / statistics.fmean(with_spans)]
            if plain and with_spans else [])
        sweeps = {}
        for method in ("inv", "pgd"):
            slope = []
            if workload.sweep and workload.sweep[0] == method:
                value, sweeps[method] = scaling_sweep(method, workload.sweep[1], args.seed)
                slope = [value]
            put(f"loss.{method}_time_exp", slope)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "batch_size": N, "epochs": state.epoch, "steps": len(rec.steps),
        "step_ms_tail_percentile": tail_pct,
        "failed_frac": [failed, attempted], "unsolved_frac": [unsolved, anchors_checked],
        "checked_steps": sorted({index for index, *_ in captured}),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_info(),
    }
    if rec.traced:
        meta["sweep_ms"] = sweeps
        meta["missing_hooks"] = hooks.missing
    if error is not None:
        meta["error"] = error
    if failures:
        meta["check_failures"] = {str(k): v for k, v in failures.items()}
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
