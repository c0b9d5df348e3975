"""Self-test of the benchmark, run by ``python3 perfbench/run.py --self-test``.

It shows that ``BENCHMARK.json`` lists what ``catalog.py`` defines, that
the output checks pass on true loss outputs, that they catch a corrupted
loss, gradient or alpha, and that the hooks leave the program as they
found it. Exits 1 if any case does not behave as expected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import mmcl.loss as mloss
import mmcl.training as mtraining
from mmcl.kernels import KernelSpec
from mmcl.svm import SolverConfig

import catalog
import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent


def benchmark_json_problems() -> list:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"]: w["why"] for w in data["workloads"]} != {n: w.why for n, w in catalog.WORKLOADS.items()}:
        problems.append("workloads differ")
    for key, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"], m.get("bound")) for m in data[key]]
        if listed != [(m.name, m.unit, m.better, m.bound) for m in table]:
            problems.append(f"{key} differs")
    return problems


def unit_columns(rng, d, n):
    X = rng.standard_normal((d, n))
    return X / np.linalg.norm(X, axis=0, keepdims=True)


def cases():
    """Yield (description, check result, whether the step must pass, whether
    some anchor must be unsolved)."""
    rng = np.random.default_rng(0)
    V1, V2 = unit_columns(rng, 6, 8), unit_columns(rng, 6, 8)
    spec = KernelSpec(kind="rbf", sigma_sq=1.0)
    solver = SolverConfig(max_iters=1000, tol=1e-8, seed=0)
    for method in ("inv", "pgd"):
        args, kwargs = (V1, V2, spec, 100.0, 0.1, solver), {"method": method}
        total, G1, G2, alphas = mloss.batch_loss(*args, **kwargs)

        def check(out):
            return checks.check_mmcl(args, kwargs, out, inv_oracle=True)
        yield f"{method}: true outputs", check((total, G1, G2, alphas)), True, False
        yield f"{method}: corrupted loss", check((total + 1e-4, G1, G2, alphas)), False, False
        bad = G2.copy()
        bad[1, 3] += 1e-4
        yield f"{method}: corrupted gradient", check((total, G1, bad, alphas)), False, False
        moved = [a.copy() for a in alphas]
        moved[2][5] += 0.25
        yield f"{method}: corrupted alpha, stale loss", check((total, G1, G2, moved)), False, True
        # loss and gradients recomputed from the corrupted alpha, so only the
        # dual reference can tell
        consistent = checks.mmcl_reference(V1, V2, moved, spec) + (moved,)
        yield (f"{method}: corrupted alpha, consistent loss", check(consistent),
               method == "pgd", True)
        outside = [a.copy() for a in alphas]
        outside[0][0] = -1e-3
        consistent = checks.mmcl_reference(V1, V2, outside, spec) + (outside,)
        yield f"{method}: alpha outside the box", check(consistent), False, False
    args = (V1, V2, 0.5)
    total, G1, G2 = mloss.nce_batch_loss(*args)
    yield "nce: true outputs", checks.check_nce(args, {}, (total, G1, G2)), True, False
    yield "nce: corrupted loss", checks.check_nce(args, {}, (total * (1 + 1e-6), G1, G2)), False, False
    bad = G1.copy()
    bad[0, 0] -= 1e-4
    yield "nce: corrupted gradient", checks.check_nce(args, {}, (total, bad, G2)), False, False


def hooks_restore() -> bool:
    before = (mtraining.batch_loss, mloss.np, mloss.gram)
    hooks = tracing.install(tracing.Recorder(traced=True), lambda *a: None)
    replaced = mloss.np is not np and mtraining.batch_loss is not before[0]
    hooks.remove()
    return replaced and (mtraining.batch_loss, mloss.np, mloss.gram) == before


def main() -> int:
    bad = 0
    problems = benchmark_json_problems()
    print(f"{'ok' if not problems else 'FAIL'}  BENCHMARK.json agrees with catalog.py {problems or ''}")
    bad += bool(problems)
    for what, result, must_pass, must_miss in cases():
        good = result.ok == must_pass and (result.anchors_unsolved > 0) == must_miss
        bad += not good
        verdict = "passes" if result.ok else f"fails ({result.failures[0]})"
        print(f"{'ok' if good else 'FAIL'}  {what}: step {verdict}, "
              f"{result.anchors_unsolved}/{result.anchors_checked} anchors unsolved")
    good = hooks_restore()
    print(f"{'ok' if good else 'FAIL'}  hooks are removed without a trace")
    bad += not good
    print(f"self-test: {'all cases behave' if not bad else f'{bad} case(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
