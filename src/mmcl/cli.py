"""Command-line surface: train, eval, solve, inspect, bench.

Every subcommand runs under one config: the defaults of ``TrainConfig``
and its parts, then the ``--config`` file (required only by ``train``),
then each ``--set key=value`` in order (the keys of ``mmcl.config``). A
command's own inputs are solve's ``--instance`` and ``--solver``,
inspect's ``--anchor``, ``--all-anchors`` and ``--method``, and bench's
``--sizes``, ``--dim`` and ``--reps``; train and eval have none.

All tabular output is CSV with a header row. Exit codes: 0 success,
1 runtime abort (diagnostics written next to the checkpoint), 2 usage,
config, or input-file errors, and a solve by any method (``solve``,
``inspect`` or ``train``) whose dual matrix is not positive definite.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings

import numpy as np

from . import config as cfgmod
from . import encoder as enc
from .data import augment_batch, stream_rng
from .evaluate import _check_finite
from .loss import batch_loss, nce_batch_loss
from .svm import (SingularInstanceError, SvmInstance, assemble_delta,
                  build_instance, classify_support, solve_inv, solve_oracle, solve_pgd)
from .training import (LOSS_KINDS, METRICS_HEADER, SOLVER_METHODS, TrainConfig, TrainingAbort,
                       check_batch_size, eval_split, evaluation_split, format_metrics_row,
                       held_out_accuracies, load_checkpoint_params, save_state, train)

CATEGORY_NAMES = {0: "non-support", 1: "support", 2: "margin-violator"}


def _settings(args) -> tuple:
    """The config a subcommand runs under (defaults, then the --config
    file, then --set overrides) and the TrainConfig it describes."""
    cfg = cfgmod.parse_config_file(args.config) if args.config else cfgmod.default_config()
    cfgmod.apply_overrides(cfg, args.set)
    return cfg, cfgmod.build_train_config(cfg)


def cmd_train(args) -> int:
    cfg, tc = _settings(args)
    dataset = cfgmod.load_dataset(cfg)
    check_batch_size(tc, dataset)  # an unusable dataset exits before metrics.csv is opened
    evaluation_split(tc, dataset)
    metrics_path = cfg["out.metrics"]
    ckpt_path = cfg["out.checkpoint"]
    ckpt_dir = os.path.dirname(os.path.abspath(ckpt_path))
    if not os.path.isdir(ckpt_dir):  # else every epoch would train before the save fails
        raise ValueError(f"out.checkpoint = {ckpt_path}: directory {ckpt_dir} does not exist")
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
    cfg, tc = _settings(args)
    params = load_checkpoint_params(cfg["out.checkpoint"])
    dataset = cfgmod.load_dataset(cfg)
    split = eval_split(dataset, tc.seed, tc.test_fraction)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        knn_acc, lin_acc = held_out_accuracies(tc, params, dataset, split)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print("knn_accuracy,linear_accuracy,k,epochs_probe")
    print(f"{knn_acc!r},{lin_acc!r},{min(tc.eval_k, len(split[0]))},{tc.probe_epochs}")
    return 0


def _parse_instance_file(path, tc: TrainConfig) -> SvmInstance:
    """Read a solve instance: raw kernel blocks ([k_xx], [k_xY], [K_YY]) or
    embeddings ([z_pos], and [Z_neg] with one negative per row) under the
    kernel ``tc.kernel``. C and beta are ``tc``'s. A section that is
    empty, ragged or holds a cell that is no finite number, and sections
    whose lengths do not match, are rejected by name."""
    sections = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in ("k_xx", "k_xY", "K_YY", "z_pos", "Z_neg"):
                    hint = "; set the kernel with --set kernel.<key>=<value>" if current == "kernel" else ""
                    raise ValueError(f"{path}: unknown section [{current}], expected one of "
                                     f"k_xx, k_xY, K_YY, z_pos, Z_neg{hint}")
                sections[current] = []
                continue
            if current is None:
                raise ValueError(f"{path}: content before any [section] header")
            sections[current].append(line)
    for block, needed in (("K_YY", "k_xY"), ("Z_neg", "z_pos")):
        if block in sections and needed not in sections:
            raise ValueError(f"{path}: a [{block}] section needs a [{needed}] section")
    if "K_YY" in sections:
        k_xx = _section_values(path, sections, "k_xx") if "k_xx" in sections else np.ones(1)
        if k_xx.size != 1:
            raise ValueError(f"{path}: [k_xx] holds {k_xx.size} values, expected 1")
        k_xx = float(k_xx[0])
        k_xY = _section_values(path, sections, "k_xY")
        K_YY = _section_values(path, sections, "K_YY", matrix=True)
        n = k_xY.size
        if K_YY.shape != (n, n):
            raise ValueError(f"{path}: [K_YY] is {K_YY.shape[0]} x {K_YY.shape[1]}, but [k_xY] "
                             f"holds {n} values, so it must be {n} x {n}")
        asym = float(np.max(np.abs(K_YY - K_YY.T)))  # inv would factor one triangle of D
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(K_YY)))):
            raise ValueError(f"{path}: [K_YY] is not symmetric (max |K_YY - K_YY'| = {asym!r})")
        return SvmInstance(delta=assemble_delta(k_xx, k_xY, K_YY, tc.beta), C=tc.C, beta=tc.beta)
    if "Z_neg" in sections:
        z_pos = _section_values(path, sections, "z_pos")
        Z_neg = _section_values(path, sections, "Z_neg", matrix=True)
        if Z_neg.shape[1] != z_pos.size:
            raise ValueError(f"{path}: [Z_neg] rows hold {Z_neg.shape[1]} values, but [z_pos] "
                             f"holds {z_pos.size}")
        return build_instance(tc.kernel, z_pos, Z_neg.T, tc.C, tc.beta)
    raise ValueError(f"{path}: need either a K_YY section or a Z_neg section")


def _section_values(path, sections, name, matrix=False) -> np.ndarray:
    """Section ``name`` of the instance file ``path`` as floats: a matrix
    with one row per line, or else one vector of all its cells. Raises a
    ValueError naming the file and the section when the section is empty,
    a cell is not a number, the matrix is ragged or a value is NaN or
    infinite."""
    lines = sections[name]
    if not lines:
        raise ValueError(f"{path}: [{name}] is empty")
    rows = [ln.split(",") for ln in lines] if matrix else [",".join(lines).split(",")]
    try:
        rows = [[float(v) for v in row] for row in rows]
    except ValueError as exc:
        raise ValueError(f"{path}: [{name}] holds a non-numeric cell ({exc})") from exc
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"{path}: [{name}] row {i} has {len(row)} values, "
                             f"expected {len(rows[0])}")
    values = np.array(rows)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: [{name}] holds a non-finite value")
    return values if matrix else values[0]


def _solve_instance(inst: SvmInstance, method: str, tc: TrainConfig):
    """Solve one dual by ``method`` (inv, oracle or pgd) under ``tc``'s
    solver settings; ``oracle`` runs to its ``tol``."""
    if method == "inv":
        return solve_inv(inst)
    if method == "oracle":
        return solve_oracle(inst, tol=tc.solver.tol)
    return solve_pgd(inst, tc.solver)


def cmd_solve(args) -> int:
    _, tc = _settings(args)
    inst = _parse_instance_file(args.instance, tc)
    sol = _solve_instance(inst, args.solver, tc)
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
    cfg, tc = _settings(args)
    params = load_checkpoint_params(cfg["out.checkpoint"])
    dataset = cfgmod.load_dataset(cfg)
    if dataset.labels is None:
        print("inspect requires a labeled dataset", file=sys.stderr)
        return 2
    check_batch_size(tc, dataset)
    N = tc.batch_size

    if args.all_anchors:
        rng = stream_rng(tc.seed, "inspect-batch")
        rows = dataset.samples[rng.choice(len(dataset), size=N, replace=False)]
        # two augmented views of the batch, as training builds them
        view1, view2 = (_head_embeddings(params, augment_batch(
            tc.augmentation, rows, stream_rng(tc.seed, "inspect-batch", v))) for v in (0, 1))
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
    rng = stream_rng(tc.seed, "inspect", anchor)
    others = np.setdiff1d(np.arange(len(dataset)), [anchor])
    chosen = rng.choice(others, size=N - 1, replace=False)
    emb = _head_embeddings(params, dataset.samples[np.concatenate([[anchor], chosen])])
    inst = build_instance(tc.kernel, emb[:, 0], emb[:, 1:], tc.C, tc.beta)
    sol = _solve_instance(inst, args.method, tc)
    cats = classify_support(sol.alpha, inst.C)
    print("anchor_index,anchor_label,n_negatives,C,alpha_x")
    print(f"{anchor},{dataset.labels[anchor]},{inst.n},{tc.C!r},{sol.alpha_x!r}")
    print()
    print("negative_index,label,alpha,category")
    for j, neg_idx in enumerate(chosen):
        print(f"{neg_idx},{dataset.labels[neg_idx]},{float(sol.alpha[j])!r},{CATEGORY_NAMES[int(cats[j])]}")
    return 0


def _head_embeddings(params, samples) -> np.ndarray:
    """The d' x n head embeddings of the n rows of ``samples``; ValueError
    when one is not finite, as ``mmcl eval`` rejects them."""
    emb, _ = enc.forward(params, np.asarray(samples, dtype=np.float64).T)
    _check_finite(emb.T, "head")
    return emb


def cmd_bench(args) -> int:
    _, tc = _settings(args)
    sizes = []
    for entry in args.sizes.split(","):
        try:
            sizes.append(int(entry))
        except ValueError:
            print(f"bench --sizes must be comma-separated integers, got {entry!r} in {args.sizes!r}",
                  file=sys.stderr)
            return 2
    sizes.sort()
    for name, value, low in (("--sizes", min(sizes), 2), ("--dim", args.dim, 1), ("--reps", args.reps, 1)):
        if value < low:
            print(f"bench {name} must be >= {low}", file=sys.stderr)
            return 2
    print("batch_size,loss_variant,ms_per_iter")
    for N in sizes:
        rng = stream_rng(tc.seed, "bench", N)
        v1 = rng.standard_normal((args.dim, N))
        v1 /= np.linalg.norm(v1, axis=0, keepdims=True)
        v2 = rng.standard_normal((args.dim, N))
        v2 /= np.linalg.norm(v2, axis=0, keepdims=True)
        for variant in LOSS_KINDS:
            times = []
            for _ in range(args.reps):
                start = time.perf_counter()
                if variant == "nce":
                    nce_batch_loss(v1, v2, tc.temperature)
                else:
                    batch_loss(v1, v2, tc.kernel, tc.C, tc.beta, tc.solver,
                               method=SOLVER_METHODS[variant])
                times.append((time.perf_counter() - start) * 1e3)
            print(f"{N},{variant},{sorted(times)[len(times) // 2]!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, reads, config_required=False):
        p = sub.add_parser(name, help=summary, description=(
            f"{summary}. Settings come from the config (defaults, then --config, then "
            f"--set); this command reads {reads}."))
        p.add_argument("--config", required=config_required, help="file of 'key = value' lines")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key after the file (repeatable)")
        p.set_defaults(func=func)
        return p

    command("train", cmd_train, "run the training loop", "every key, and writes out.metrics "
            "and out.checkpoint", config_required=True)
    command("eval", cmd_eval, "kNN readout and linear probe of a checkpoint",
            "out.checkpoint, data.*, seed, eval_features and eval.*, and splits the data as "
            "training does, so it prints what a run under the same config logs after its last "
            "epoch (when eval_every divides epochs)")

    p_solve = command("solve", cmd_solve, "solve one dual instance from a file",
                      "kernel.*, C, beta and solver.*")
    p_solve.add_argument("--instance", required=True,
                         help="[k_xx], [k_xY] and [K_YY] kernel blocks, or [z_pos] and [Z_neg] "
                              "embeddings under kernel.*")
    p_solve.add_argument("--solver", choices=("pgd", "inv", "oracle"), default="pgd")

    p_inspect = command("inspect", cmd_inspect, "per-negative dual weights for an anchor",
                        "out.checkpoint, data.*, batch_size, seed (the drawn batch), kernel.*, "
                        "C, beta, solver.*, fn_correction and aug.*")
    p_inspect.add_argument("--anchor", type=int, default=0)
    p_inspect.add_argument("--all-anchors", action="store_true",
                           help="dump every anchor of a two-view batch instead")
    p_inspect.add_argument("--method", choices=("pgd", "inv", "oracle"), default="inv",
                           help="dual solver; oracle is for a single anchor only")

    p_bench = command("bench", cmd_bench, "time batch_loss per batch size and variant",
                      "kernel.*, C, beta, solver.*, temperature and seed")
    p_bench.add_argument("--sizes", default="8,16,32", help="comma-separated batch sizes")
    p_bench.add_argument("--dim", type=int, default=16)
    p_bench.add_argument("--reps", type=int, default=3)
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
