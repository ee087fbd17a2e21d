"""One benchmark process: set up a workload, time passes over it, check outputs.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

BLAS is pinned to one thread before numpy is imported.  ``setup_s`` runs from
the first line of this file (so it includes importing numpy and cavsim)
through workload generation and reference loading, up to the first timed call.
Passes repeat while that keeps the measured time nearest ``--seconds`` (at
least one; with tracing on, untraced and traced passes alternate, at least one
of each).  Outputs are
checked after the last pass.  The last stdout line is one JSON object.
"""

import os
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import REF_DIR, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for self-tests")
    p.add_argument("--ref-dir", type=Path, default=REF_DIR)
    return p.parse_args(argv)


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_pass(ops) -> tuple[float, list]:
    """Time one pass; an operation that raises is recorded as its output."""
    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op())
        except Exception as exc:  # counted as a failed operation, run continues
            traceback.print_exc()
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def capture(workload, output):
    """Checkable form of one output; an unreadable output counts as failed."""
    if isinstance(output, Exception):
        return output
    try:
        return workload.capture(output)
    except Exception as exc:  # e.g. a CSV whose columns changed
        traceback.print_exc()
        return exc


def measure(workload, ops, seconds: float, traced_run: bool) -> dict:
    tracer = spans.Tracer() if traced_run else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    captured = []
    peak_rss_mb = None
    begin = time.perf_counter()
    cycles = 0
    while True:
        for traced in (False, True) if traced_run else (False,):
            if traced:
                tracer.install()
            try:
                wall, outputs = run_pass(ops)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if peak_rss_mb is None:
                # a fresh process that ran the workload once, as a user would;
                # later passes grow the heap a little, by how many fit the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            captured.append([capture(workload, out) for out in outputs])
        cycles += 1
        elapsed = time.perf_counter() - begin
        # stop where the measured time lands nearest to ``seconds``
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break

    workload.ensure_reference()
    attempted, failures = 0, []
    for outputs in captured:
        n, failed = workload.tally(outputs)
        attempted += n
        failures += failed
    result = {
        "wall_s": walls[False],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if traced_run:
        layers = tracer.metrics(len(walls[True]))
        layers["trace_overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        result["traced_wall_s"] = walls[True]
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, out_dir, args.ref_dir)
        ops = workload.ops()
        setup_s = time.perf_counter() - START
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(workload, ops, args.seconds, bool(args.trace)))
            result["env"] = environment()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
