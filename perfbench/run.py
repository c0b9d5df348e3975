"""Training benchmark of the ``mmcl`` package.

Run from the repository root:

    python3 perfbench/run.py --workload inv_b128 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --list        # every metric by name, with its unit
    python3 perfbench/run.py --self-test   # the output checks catch corruption

A run measures one workload of ``catalog.WORKLOADS`` in a fresh process
(``workload.py``) with the BLAS thread count pinned to ``BLAS_THREADS``,
from the sources under ``src/``. ``--trace 0`` reports the end-to-end
metrics; set-up time is the median over that process and ``SETUP_PROBES``
fresh set-up-only processes. ``--trace 1`` reports the per-layer metrics,
from spans recorded around the program's module-level functions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run's metadata: git revision (when there is one), a digest of the
sources, library versions and BLAS configuration, thread counts, the seed,
and each metric's sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

sys.dont_write_bytecode = True

import catalog  # noqa: E402  (after dont_write_bytecode)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0  # every child process is killed by then
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: at these matrix sizes a second thread gains little (PGD
# steps) or loses (the probe), and on a shared 2-core machine it makes step
# times follow the other core's load.
BLAS_THREADS = 1


class RunError(RuntimeError):
    pass


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, usable_cpus()))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: str, argv: list, deadline: float):
    """Run ``script`` to completion; returns (seconds from start to its
    ``READY`` line or None, the other stdout lines)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / script)] + argv, cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - monotonic(), 0.0), proc.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RunError(f"{script} {' '.join(argv)} exited with code {code}")
    return ready, lines


def git_revision():
    if not (ROOT / ".git").exists():  # never look above the checkout
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmcl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(args) -> dict:
    deadline = monotonic() + TIME_LIMIT_S
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []

    def probe():
        seconds, _ = run_child("workload.py", argv + ["--setup-only"], deadline)
        if seconds is None:
            raise RunError("a set-up probe never became ready")
        setups.append(seconds)

    # probes before and after the measured process sample the machine at
    # different times
    probes = 0 if args.trace else catalog.SETUP_PROBES
    for _ in range(probes // 2):
        probe()
    ready, lines = run_child("workload.py", argv, deadline)
    if ready is None or not lines:
        raise RunError("the workload process reported no result")
    raw = json.loads(lines[-1])
    meta = raw["meta"]
    metrics = raw["metrics"]
    if not args.trace:
        setups.append(ready)
        for _ in range(probes - probes // 2):
            probe()
        metrics["setup_s"] = [statistics.median(setups), len(setups)]
        meta["setup_s_samples"] = setups
    wanted = catalog.PER_LAYER if args.trace else catalog.END_TO_END
    missing = [m.name for m in wanted if m.name not in metrics]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    meta.update(git=git_revision(), source_sha256=source_digest(), nproc=os.cpu_count(),
                usable_cpus=usable_cpus(), blas_threads={v: child_env()[v] for v in BLAS_THREAD_VARS},
                samples={m.name: metrics[m.name][1] for m in wanted},
                absent=[m.name for m in catalog.PER_LAYER if m.name in metrics and not metrics[m.name][1]])
    return {
        "meta": meta,
        "result": {
            "correct": bool(raw["correct"]),
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": {m.name: {"value": metrics[m.name][0], "unit": m.unit} for m in wanted},
        },
    }


def list_metrics() -> None:
    for title, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        print(f"# {title}")
        for m in table:
            bound = f"  bound {m.bound:g}" if m.bound is not None else ""
            print(f"{m.name:22s} {m.unit:6s} {m.better:6s}{bound}  {m.doc}")
    print("# workloads")
    for name, w in catalog.WORKLOADS.items():
        print(f"{name:22s} {' '.join(w.overrides)}  -- {w.why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric with its unit")
    parser.add_argument("--self-test", action="store_true",
                        help="show that the output checks catch corrupted outputs")
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if not (SRC / "mmcl" / "__init__.py").is_file():
        print(f"run.py: no mmcl sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT,
                              env=child_env(), timeout=TIME_LIMIT_S).returncode
    try:
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        out = measure(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["meta"], sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
