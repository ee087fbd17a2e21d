"""Self-tests of the benchmark itself (about a minute on 2 cores).

    python3 bench/selftest.py

1. Inputs: the same seed gives the same inputs, and seed 0 reproduces the
   ``preset fig6`` grid.
2. Sensitivity: one stored fig6-branch reference concurrence moved by 1e-6
   makes exactly one operation per pass fail, so ``success_frac`` drops below 1.
3. Coverage: a reduced-size (``--smoke``) run of every workload, untraced and
   traced, passes its checks and emits exactly the metric names and units that
   BENCHMARK.json lists.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import REF_DIR, WORKLOADS  # noqa: E402

PERTURBATION = 1e-6
FIG6_TRAJECTORIES = 16


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_inputs_from_seed(scratch: Path) -> None:
    from cavsim import presets

    fig6 = WORKLOADS["fig6-branch"](0, False, scratch)
    jobs = presets.preset_jobs("fig6")
    assert [sc for _, sc, _ in fig6.trajectories] == [job.scenario for job in jobs]
    for (_, _, times), job in zip(fig6.trajectories, jobs):
        assert np.array_equal(times, job.sample_times)
    for name, cls in WORKLOADS.items():
        first, again = cls(7, False, scratch), cls(7, False, scratch)
        assert repr(first.trajectories) == repr(again.trajectories), name
        assert repr(first.trajectories) != repr(cls(8, False, scratch).trajectories), name


def test_perturbed_reference_fails(scratch: Path) -> None:
    refs = scratch / "refs"
    shutil.copytree(REF_DIR, refs)
    path = refs / "seed0" / "fig6-branch.json"
    doc = json.loads(path.read_text())
    doc["trajectories"][3]["rows"][100][1] += PERTURBATION  # C_AF1 after stage 1
    path.write_text(json.dumps(doc))
    result = run_bench(
        "--workload", "fig6-branch", "--seed", "0", "--seconds", "0", "--trace", "0",
        "--ref-dir", str(refs),
    )
    passes = result["attempted"] // FIG6_TRAJECTORIES
    assert result["failed"] == passes >= 1, result
    assert not result["correct"], result
    assert result["metrics"]["success_frac"]["value"] < 1.0, result


def test_smoke_emits_every_metric(_scratch: Path) -> None:
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = run_bench(
                "--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace),
                "--smoke",
            )
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def main() -> int:
    scratch = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    failed = 0
    try:
        for test in (
            test_inputs_from_seed,
            test_perturbed_reference_fails,
            test_smoke_emits_every_metric,
        ):
            try:
                test(scratch)
                print(f"PASS {test.__name__}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
