"""Benchmark of the proxgn library through its public API.

    python3 bench/run.py --workload box-sweep --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run and
writes its spans under ``bench/results/``.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics.  See
``bench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is timed this many times in fresh interpreters; setup_s is the median
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def bootstrap():
    """Pin BLAS/OpenMP to one thread and put ``src/`` and this directory on the path.

    Must run before numpy is imported.  Raises FileNotFoundError outside a
    checkout of the repository.
    """
    package = ROOT / "src" / "proxgn" / "__init__.py"
    if not package.is_file():
        raise FileNotFoundError(f"no proxgn sources at {package.parent}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' without .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def run_meta(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: int, min_ops=None):
    """One run of one workload: (result object, human-readable lines)."""
    import harness
    from layers import PER_LAYER_UNITS

    min_ops = harness.MIN_OPS if min_ops is None else min_ops
    workload = harness.make_workload(name, seed)
    meta = run_meta(name, seed, seconds, trace)
    if trace:
        tracer, samples, scale, overhead = harness.run_traced(workload, seconds, min_ops)
        verdicts, correct = harness.verify(workload, samples)
        metrics, units = tracer.metrics(len(samples), scale, overhead), PER_LAYER_UNITS
        tracer.write(RESULTS_DIR / f"spans-{name}-seed{seed}.csv.gz", meta)
    else:
        samples, scale, peak_rss_mb = harness.run_untraced(workload, seconds, min_ops)
        verdicts, correct = harness.verify(workload, samples)
        metrics = harness.end_to_end(workload, samples, scale, verdicts,
                                     setup_seconds(name, seed), peak_rss_mb)
        units = harness.END_TO_END_UNITS
    failed = sum(not v.ok for v in verdicts)
    reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(harness.fail_counts(verdicts).items()))
    lines = [f"meta {json.dumps(meta)}",
             f"{name}: {len(samples)} ops, {failed} failed{' (' + reasons + ')' if reasons else ''}"
             f", correct={correct}"]
    lines += [f"  {metric:<24} {value!r} {units[metric]}" for metric, value in metrics.items()]
    lines.append(f"  {'fail_frac':<24} {failed / len(samples)!r} share")
    lines.append(f"  times are scaled by {scale!r} to a {harness.REFERENCE_KERNEL_S * 1e3:g} ms "
                 "calibration kernel; divide by it for wall time")
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="box-sweep, local-interior, radius-mix or all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except FileNotFoundError as exc:
        print(f"error: {exc}; run this from a checkout of the repository", file=sys.stderr)
        return 2
    import harness

    names = harness.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(harness.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        summary = result
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
