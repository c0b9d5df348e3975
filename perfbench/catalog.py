"""Workloads and metrics of the training benchmark.

This module is the benchmark's single table of what it runs and what it
reports. It imports nothing outside the standard library, so the launcher
can read it before the BLAS thread count is pinned. ``BENCHMARK.json`` at
the repository root lists the same workloads and metrics; the self-test
(``python3 perfbench/run.py --self-test``) checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

# A run trains until this many epochs or until its time budget ends,
# whichever is first; the budget always ends first.
EPOCH_CAP = 1_000_000

# Fresh set-up-only processes per untraced run; with the measured process's
# own set-up they give the samples whose median is setup_s.
SETUP_PROBES = 2

# The oracle reference (``svm.solve_oracle``: dual gap, convergence) runs on
# every ``N // ORACLE_ANCHORS``-th anchor of a checked step only: it costs
# about 15 ms per anchor at N = 32 and more at N = 128.
ORACLE_ANCHORS = 4

# Tolerances of the output checks. The batched code and the per-anchor
# references differ only in summation order, so 1e-8 relative leaves
# several orders of magnitude above round-off and far below any real error.
RTOL = 1e-8
# A dual solution "meets its reference" when its objective is within this
# share of the oracle optimum.
OBJECTIVE_RTOL = 1e-8


def is_checked_step(index: int) -> bool:
    """Timed steps 0, 1, 2, 4, 8, ... get output checks: early and late
    steps are both sampled, and the check count grows only as log(steps)."""
    return index >= 0 and index & (index - 1) == 0


@dataclass(frozen=True)
class Workload:
    overrides: tuple  # ``key=value`` strings applied to ``config.default_config()``
    why: str
    sweep: tuple = ()  # (method, batch sizes) of the traced scaling sweep


WORKLOADS = {
    "inv_b128": Workload(
        overrides=("loss=mmcl_inv", "batch_size=128", "data.per_class=256", "kernel.kind=rbf"),
        why="large-batch mmcl_inv: per-anchor dual assembly and the stacked inv solve dominate",
        sweep=("inv", (64, 128, 256))),
    "pgd_b32": Workload(
        overrides=("loss=mmcl_pgd", "batch_size=32"),
        why="mmcl_pgd with the default solver: PGD iterations and step sizes dominate",
        sweep=("pgd", (16, 32, 64))),
    "nce_eval_b256": Workload(
        overrides=("loss=nce", "batch_size=256", "data.per_class=512", "eval_every=1"),
        why="InfoNCE with evaluation every epoch: bypasses all SVM code, loads the evaluator"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    doc: str
    bound: float = None  # end-to-end metrics only


END_TO_END = (
    Metric("train_samples_per_s", "1/s", "higher", "anchors trained per second of training "
           "wall time after warm-up, evaluation excluded", 0.25),
    Metric("step_ms_p50", "ms", "lower", "median time of one step, augmentation to Adam", 0.25),
    Metric("step_ms_tail", "ms", "lower", "the highest step-time percentile with at least ten "
           "steps beyond it (the 11th-longest step); the run states the percentile", 0.25),
    Metric("eval_ms_p50", "ms", "lower", "median time of one evaluation: embeddings, kNN, probe", 0.25),
    Metric("setup_s", "s", "lower", "process start to ready, including one untimed warm-up "
           "step; median over fresh processes", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the measured process", 0.1),
    Metric("knn_acc", "ratio", "higher", "kNN accuracy on the held-out split after training", 0.25),
    Metric("linear_acc", "ratio", "higher", "linear-probe accuracy on the held-out split after "
           "training", 0.1),
    Metric("passed_frac", "ratio", "higher", "steps that completed with a finite loss and passed "
           "their output checks, over steps attempted (1 - failed_frac)", 0.01),
    Metric("solved_frac", "ratio", "higher", "checked anchors whose dual solution meets its "
           "reference, over anchors checked (1 - unsolved_frac; 1 when none is checked)", 0.05),
)

PER_LAYER = (
    Metric("loss.assemble_ms", "ms", "lower", "per-anchor dual matrices (_anchor_deltas), per step"),
    Metric("loss.alloc_peak_mb", "MB", "lower", "tracemalloc peak across one loss call"),
    Metric("loss.inv_time_exp", "1", "lower", "log-log slope of inv batch_loss time over N"),
    Metric("loss.pgd_time_exp", "1", "lower", "log-log slope of pgd batch_loss time over N"),
    Metric("svm.solve_ms.inv", "ms", "lower", "stacked np.linalg.solve of the inv method, per step"),
    Metric("svm.solve_ms.pgd", "ms", "lower", "batched PGD (_pgd_batched), per step"),
    Metric("svm.step_size_ms", "ms", "lower", "PGD step sizes (resolve_step_sizes), per step"),
    Metric("svm.pgd_iters_mean", "count", "lower", "mean PGD iterations per anchor"),
    Metric("svm.pgd_iters_max", "count", "lower", "largest PGD iteration count of an anchor"),
    Metric("svm.unconverged_frac", "ratio", "lower", "checked anchors whose projected-gradient "
           "norm on the reference D exceeds solver.tol"),
    Metric("loss.accumulate_ms", "ms", "lower", "loss and gradient accumulation, per step"),
    Metric("loss.nce_ms", "ms", "lower", "nce_batch_loss, per step"),
    Metric("evaluate.embed_ms", "ms", "lower", "evaluation embeddings, per evaluation"),
    Metric("evaluate.knn_ms", "ms", "lower", "kNN readout, per evaluation"),
    Metric("evaluate.probe_ms", "ms", "lower", "linear probe, per evaluation"),
    Metric("kernels.gram_ms", "ms", "lower", "Gram matrices inside the loss, per step"),
    Metric("data.augment_ms", "ms", "lower", "two-view augmentation, per step"),
    Metric("encoder.forward_ms", "ms", "lower", "encoder forward passes, per step"),
    Metric("encoder.backward_ms", "ms", "lower", "encoder backward passes, per step"),
    Metric("encoder.adam_ms", "ms", "lower", "Adam update, per step"),
    Metric("loss.self_ms", "ms", "lower", "loss call time not covered by its child spans, per step"),
    Metric("training.self_ms", "ms", "lower", "step time not covered by its child spans, per step"),
    Metric("svm.support_frac", "ratio", "higher", "dual coordinates with 0 < alpha < C"),
    Metric("svm.violator_frac", "ratio", "lower", "dual coordinates at alpha = C"),
    Metric("svm.zero_frac", "ratio", "higher", "dual coordinates at alpha = 0"),
    Metric("svm.alpha_x_mean", "1", "higher", "mean alpha_x = sum(alpha) per anchor"),
    Metric("svm.dual_gap_rel", "ratio", "lower", "mean (g(alpha) - g*) / max(1, |g*|) against "
           "solve_oracle on checked anchors"),
    Metric("trace.overhead_frac", "ratio", "lower", "1 - traced / untraced throughput, from "
           "alternating traced and untraced steps of the traced run"),
)

METRICS = {m.name: m for m in END_TO_END + PER_LAYER}
