"""The benchmark's own self-test, run against the program under test."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from mmcl import KernelSpec, SolverConfig, batch_loss
from mmcl import loss as loss_module

from helpers import unit_columns

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_self_test_passes():
    # the output checks must pass on true outputs and catch corrupted ones,
    # and every hook the traced runs attach must be removable
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test: all cases behave" in proc.stdout


def test_traced_run_passes():
    # --self-test never takes the traced path: the scaling sweep's own
    # SolverConfig and the hooks on the encoder and _pgd_batched
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "pgd_b32",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_traced_inv_run_passes():
    # the traced path on inv steps: the inv scaling sweep and the
    # _accumulate_anchor_terms span, which test_traced_run_passes takes on
    # pgd steps only
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "inv_b128",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_traced_hooks_resolve(monkeypatch):
    # a traced run reports the span of a hook that no longer resolves as
    # absent, so a refactor that renames a hooked function shows here, not
    # as a metric gone silent. mmcl.loss._anchor_deltas is the known stale
    # hook of loss.assemble_ms
    hooked = [(module, attr) for module, attr, _ in _tracing().LAYER_SPANS]
    hooked.append(("mmcl.loss", "_pgd_batched"))
    missing = {f"{module}.{attr}" for module, attr in hooked
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == {"mmcl.loss._anchor_deltas"}

    # svm.pgd_iters_* read the per-anchor step counts at index 1 of the result
    results = []
    pgd_batched = loss_module._pgd_batched

    def recording(*args, **kwargs):
        results.append(pgd_batched(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(loss_module, "_pgd_batched", recording)
    rng = np.random.default_rng(0)
    N = 6
    batch_loss(unit_columns(rng, 4, N), unit_columns(rng, 4, N), KernelSpec(), 100.0, 0.1,
               SolverConfig(), method="pgd")
    iterations = results[0][1]
    assert iterations.shape == (N,) and np.issubdtype(iterations.dtype, np.integer)
    assert 0 < iterations.max() <= SolverConfig().max_iters
