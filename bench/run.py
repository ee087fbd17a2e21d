"""cavsim benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload fig6-branch --seed 0 --seconds 22 --trace 0

Runs from the root of a source checkout (``src/cavsim`` must exist).  The
workload runs in a fresh worker process (bench/worker.py) with BLAS pinned to
one thread.  With ``--trace 0`` the set-up alone also runs in further fresh
processes, before and after the timed run, and ``setup_s`` is their median.
Human-readable lines (the environment, per-pass timings, failures) come first;
the last stdout line is {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("fig6-branch", "dense-a2", "oracle-a0.5", "validate-quick")
SETUP_PROBES = 4  # set-up-only processes before, and again after, the timed run
DEADLINE_S = 170.0
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "success_frac": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="reduced sizes, for self-tests")
    p.add_argument("--ref-dir", help="directory of stored references (default bench/refs)")
    return p.parse_args(argv)


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cavsim" / "__init__.py").is_file():
        print(f"error: no cavsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    base += ["--smoke"] if args.smoke else []
    base += ["--ref-dir", args.ref_dir] if args.ref_dir else []

    def probe() -> float:
        return run_worker(base + ["--setup-only"], deadline)["setup_s"]

    setups: list[float] = []
    if not args.trace:
        # The first set-up reads every file cold (and may compile bytecode), which
        # users pay once, so it is discarded.  Host speed shifts within seconds on
        # a shared machine, so probes run both before and after the timed run.
        probe()
        setups = [probe() for _ in range(SETUP_PROBES)]
    run = run_worker(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)

    print("env " + json.dumps(run["env"]))
    print("wall_s per pass " + json.dumps(run["wall_s"]))
    for failure in run["failures"]:
        print("FAILED " + failure)
    if args.trace:
        print("traced wall_s per pass " + json.dumps(run["traced_wall_s"]))
        units = spans.metric_units()
        metrics = {name: {"value": v, "unit": units[name]} for name, v in run["layers"].items()}
    else:
        setups += [probe() for _ in range(SETUP_PROBES)]
        print("setup_s per process " + json.dumps(setups))
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(run["wall_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "success_frac": 1.0 - run["failed"] / run["attempted"],
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
