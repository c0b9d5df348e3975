"""Command-line surface: train, eval, solve, inspect, bench.

All tabular output is CSV with a header row. Exit codes: 0 success,
1 runtime abort (diagnostics written next to the checkpoint), 2 usage,
config, or input-file errors, and an ``inv`` solve (``solve``, ``inspect``
or ``train``) whose dual matrix is not positive definite.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from . import encoder as enc
from .data import Dataset, augment_batch, load_binary, load_csv, stream_rng, DATASET_MAGIC
from .evaluate import knn_readout, linear_probe
from .loss import batch_loss, nce_batch_loss
from .svm import (SingularInstanceError, SolverConfig, SvmInstance, assemble_delta,
                  build_instance, classify_support, solve_inv, solve_oracle, solve_pgd)
from .training import (METRICS_HEADER, STATE_MAGIC, TrainConfig, TrainingAbort,
                       check_eval_settings, eval_embeddings, eval_split, format_metrics_row,
                       load_state, save_state, train)

CATEGORY_NAMES = {0: "non-support", 1: "support", 2: "margin-violator"}


def _load_any_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        head = fh.read(len(DATASET_MAGIC))
    if head == DATASET_MAGIC:
        return load_binary(path)
    return load_csv(path)


def _load_checkpoint_params(path) -> enc.EncoderParams:
    with open(path, "rb") as fh:
        if fh.read(len(STATE_MAGIC)) == STATE_MAGIC:
            return load_state(path).params
        fh.seek(0)
        return enc.load_params(fh)


def cmd_train(args) -> int:
    cfg = cfgmod.parse_config_file(args.config)
    cfgmod.apply_overrides(cfg, args.set or [])
    tc = cfgmod.build_train_config(cfg)
    dataset = cfgmod.load_dataset(cfg)
    metrics_path = cfg["out.metrics"]
    ckpt_path = cfg["out.checkpoint"]
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics:
        metrics.write(METRICS_HEADER + "\n")

        def on_epoch(row):
            metrics.write(format_metrics_row(row) + "\n")
            metrics.flush()

        try:
            state = train(tc, dataset, on_epoch=on_epoch)
        except TrainingAbort as abort:
            dump_path = ckpt_path + ".abort.txt"
            with open(dump_path, "w", encoding="utf-8") as fh:
                fh.write(f"{abort}\n")
                for key, value in abort.diagnostics.items():
                    fh.write(f"{key} = {value}\n")
            print(f"training aborted: {abort}; diagnostics at {dump_path}", file=sys.stderr)
            return 1
    save_state(state, ckpt_path)
    return 0


def cmd_eval(args) -> int:
    check_eval_settings(args.k, args.probe_epochs, args.probe_lr, args.test_fraction)
    params = _load_checkpoint_params(args.checkpoint)
    dataset = _load_any_dataset(args.data)
    if dataset.labels is None:
        print("eval requires a labeled dataset", file=sys.stderr)
        return 2
    train_idx, test_idx = eval_split(dataset, args.split_seed, args.test_fraction)
    emb_train = eval_embeddings(params, dataset.samples[train_idx], args.features)
    emb_test = eval_embeddings(params, dataset.samples[test_idx], args.features)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        knn_acc = knn_readout(emb_train, dataset.labels[train_idx],
                              emb_test, dataset.labels[test_idx], k=args.k)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    lin_acc = linear_probe(emb_train, dataset.labels[train_idx],
                           emb_test, dataset.labels[test_idx],
                           epochs=args.probe_epochs, lr=args.probe_lr)
    print("knn_accuracy,linear_accuracy,k,epochs_probe")
    print(f"{knn_acc!r},{lin_acc!r},{min(args.k, len(train_idx))},{args.probe_epochs}")
    return 0


def _parse_instance_file(path, C: float, beta: float) -> tuple:
    """Read a solve instance: either raw kernel blocks (k_xx, k_xY, K_YY) or
    embeddings plus a kernel section (z_pos, Z_neg rows, [kernel])."""
    sections = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections[current] = []
                continue
            if current is None:
                raise ValueError(f"{path}: content before any [section] header")
            sections[current].append(line)
    if "K_YY" in sections:
        k_xY = np.array([float(v) for v in ",".join(sections["k_xY"]).split(",")])
        K_YY = np.array([[float(v) for v in row.split(",")] for row in sections["K_YY"]])
        k_xx = float(sections["k_xx"][0]) if "k_xx" in sections else 1.0
        delta = assemble_delta(k_xx, k_xY, K_YY, beta)
        return SvmInstance(delta=delta, C=C, beta=beta), None
    if "Z_neg" in sections:
        cfg = cfgmod.default_config()
        for line in sections.get("kernel", []):
            if "=" not in line:
                raise cfgmod.ConfigError(f"{path}: [kernel] expects 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            cfgmod.set_key(cfg, "kernel." + key.strip(), value)
        spec = cfgmod.build_train_config(cfg).kernel
        z_pos = np.array([float(v) for v in ",".join(sections["z_pos"]).split(",")])
        Z_neg = np.array([[float(v) for v in row.split(",")] for row in sections["Z_neg"]]).T
        return build_instance(spec, z_pos, Z_neg, C, beta), spec
    raise ValueError(f"{path}: need either a K_YY section or a Z_neg section")


def _solve_instance(inst: SvmInstance, method: str, solver: SolverConfig):
    """Solve one dual by ``method`` (inv, oracle or pgd); ``oracle`` runs to
    ``solver.tol``."""
    if method == "inv":
        return solve_inv(inst)
    if method == "oracle":
        return solve_oracle(inst, tol=solver.tol)
    return solve_pgd(inst, solver)


def cmd_solve(args) -> int:
    C = float(args.C)
    inst, _ = _parse_instance_file(args.instance, C, args.beta)
    solver = SolverConfig(step_size=args.step_size, max_iters=args.max_iters,
                          tol=args.tol, nesterov=not args.no_nesterov, seed=args.seed)
    sol = _solve_instance(inst, args.solver, solver)
    cats = classify_support(sol.alpha, inst.C)
    counts = [int(np.sum(cats == c)) for c in (0, 1, 2)]
    print("solver,n,objective,iterations,converged,alpha_x,n_zero,n_support,n_margin_violators")
    print(f"{sol.solver},{inst.n},{sol.objective!r},{sol.iterations},"
          f"{str(sol.converged).lower()},{sol.alpha_x!r},{counts[0]},{counts[1]},{counts[2]}")
    print()
    print("index,alpha,category")
    for i, (a, c) in enumerate(zip(sol.alpha, cats)):
        print(f"{i},{float(a)!r},{CATEGORY_NAMES[int(c)]}")
    return 0


def cmd_inspect(args) -> int:
    cfg = cfgmod.parse_config_file(args.config) if args.config else cfgmod.default_config()
    cfgmod.apply_overrides(cfg, args.set or [])
    params = _load_checkpoint_params(args.checkpoint)
    dataset = _load_any_dataset(args.data)
    if dataset.labels is None:
        print("inspect requires a labeled dataset", file=sys.stderr)
        return 2
    N = args.batch_size
    if len(dataset) < N:
        print(f"dataset has {len(dataset)} samples, need at least {N}", file=sys.stderr)
        return 2
    tc = cfgmod.build_train_config(cfg)

    if args.all_anchors:
        rng = stream_rng(args.seed, "inspect-batch")
        rows = dataset.samples[rng.choice(len(dataset), size=N, replace=False)]
        # two augmented views of the batch, as training builds them
        view1, view2 = (_head_embeddings(params, augment_batch(
            tc.augmentation, rows, stream_rng(args.seed, "inspect-batch", v))) for v in (0, 1))
        _, _, _, alphas = batch_loss(view1, view2, tc.kernel, tc.C, tc.beta, tc.solver,
                                     fn_correction=tc.fn_correction, method=args.method)
        print("anchor_index,negative_index,alpha,is_support,is_margin_violator")
        for k, alpha in enumerate(alphas):
            cats = classify_support(alpha, tc.C)
            for j, a in enumerate(alpha):
                print(f"{k},{j},{float(a)!r},{int(cats[j] == 1)},{int(cats[j] == 2)}")
        return 0

    anchor = args.anchor
    if not 0 <= anchor < len(dataset):
        print(f"anchor index {anchor} out of range [0, {len(dataset)})", file=sys.stderr)
        return 2
    rng = stream_rng(args.seed, "inspect", anchor)
    others = np.setdiff1d(np.arange(len(dataset)), [anchor])
    chosen = rng.choice(others, size=N - 1, replace=False)
    emb = _head_embeddings(params, dataset.samples[np.concatenate([[anchor], chosen])])
    inst = build_instance(tc.kernel, emb[:, 0], emb[:, 1:], tc.C, tc.beta)
    sol = _solve_instance(inst, args.method, tc.solver)
    cats = classify_support(sol.alpha, inst.C)
    print("anchor_index,anchor_label,n_negatives,C,alpha_x")
    print(f"{anchor},{dataset.labels[anchor]},{inst.n},{tc.C!r},{sol.alpha_x!r}")
    print()
    print("negative_index,label,alpha,category")
    for j, neg_idx in enumerate(chosen):
        print(f"{neg_idx},{dataset.labels[neg_idx]},{float(sol.alpha[j])!r},{CATEGORY_NAMES[int(cats[j])]}")
    return 0


def _head_embeddings(params, samples) -> np.ndarray:
    emb, _ = enc.forward(params, np.asarray(samples, dtype=np.float64).T)
    return emb


def cmd_bench(args) -> int:
    sizes = sorted(int(s) for s in args.sizes.split(","))
    if any(s < 2 for s in sizes):
        print("bench sizes must be >= 2", file=sys.stderr)
        return 2
    if args.dim < 1:
        print("bench --dim must be >= 1", file=sys.stderr)
        return 2
    if args.reps < 1:
        print("bench --reps must be >= 1", file=sys.stderr)
        return 2
    tc = cfgmod.build_train_config(cfgmod.default_config())
    solver = replace(tc.solver, max_iters=args.max_iters)
    print("batch_size,loss_variant,ms_per_iter")
    for N in sizes:
        rng = stream_rng(args.seed, "bench", N)
        v1 = rng.standard_normal((args.dim, N))
        v1 /= np.linalg.norm(v1, axis=0, keepdims=True)
        v2 = rng.standard_normal((args.dim, N))
        v2 /= np.linalg.norm(v2, axis=0, keepdims=True)
        for variant in ("mmcl_pgd", "mmcl_inv", "nce"):
            times = []
            for _ in range(args.reps):
                start = time.perf_counter()
                if variant == "nce":
                    nce_batch_loss(v1, v2, tc.temperature)
                else:
                    batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, solver,
                               method="pgd" if variant == "mmcl_pgd" else "inv")
                times.append((time.perf_counter() - start) * 1e3)
            print(f"{N},{variant},{sorted(times)[len(times) // 2]!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    defaults = TrainConfig()
    parser = argparse.ArgumentParser(prog="mmcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="kNN readout and linear probe of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--k", type=int, default=defaults.eval_k)
    p_eval.add_argument("--probe-epochs", type=int, default=defaults.probe_epochs)
    p_eval.add_argument("--probe-lr", type=float, default=defaults.probe_lr)
    p_eval.add_argument("--test-fraction", type=float, default=defaults.test_fraction)
    p_eval.add_argument("--features", choices=("backbone", "head"), default=defaults.eval_features)
    p_eval.add_argument("--split-seed", type=int, default=defaults.seed)
    p_eval.set_defaults(func=cmd_eval)

    p_solve = sub.add_parser("solve", help="solve one dual instance from a file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--solver", choices=("pgd", "inv", "oracle"), default="pgd")
    p_solve.add_argument("--C", type=float, default=defaults.C)
    p_solve.add_argument("--beta", type=float, default=defaults.beta)
    p_solve.add_argument("--step-size", type=lambda s: s if s == "auto" else float(s),
                         default=defaults.solver.step_size)
    p_solve.add_argument("--max-iters", type=int, default=defaults.solver.max_iters)
    p_solve.add_argument("--tol", type=float, default=defaults.solver.tol)
    p_solve.add_argument("--no-nesterov", action="store_true")
    p_solve.add_argument("--seed", type=int, default=defaults.solver.seed)
    p_solve.set_defaults(func=cmd_solve)

    p_inspect = sub.add_parser("inspect", help="per-negative dual weights for an anchor")
    p_inspect.add_argument("--checkpoint", required=True)
    p_inspect.add_argument("--data", required=True)
    p_inspect.add_argument("--anchor", type=int, default=0)
    p_inspect.add_argument("--all-anchors", action="store_true",
                           help="dump every anchor of a two-view batch instead")
    p_inspect.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p_inspect.add_argument("--method", choices=("pgd", "inv", "oracle"), default="inv",
                           help="dual solver; oracle is for a single anchor only")
    p_inspect.add_argument("--config", default=None, help="config file for kernel/C/beta/solver")
    p_inspect.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_inspect.add_argument("--seed", type=int, default=0)
    p_inspect.set_defaults(func=cmd_inspect)

    p_bench = sub.add_parser("bench", help="time batch_loss per batch size and variant")
    p_bench.add_argument("--sizes", default="8,16,32", help="comma-separated batch sizes")
    p_bench.add_argument("--dim", type=int, default=16)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--max-iters", type=int, default=defaults.solver.max_iters)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, cfgmod.ConfigError, ValueError, SingularInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
