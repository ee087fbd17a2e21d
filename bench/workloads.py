"""Benchmark workloads: inputs drawn from a seed, timed operations, checks.

A workload is a list of operations.  One pass runs every operation once and is
what ``wall_s`` times.  Each operation's output is checked afterwards, outside
the timed region, against an independent path: the other backend's records
(stored under ``refs/seed0`` for seed 0, computed after the timed passes for
other seeds), the closed-form stage-1 concurrence, or ``CheckResult.passed``.
Seed 0 reproduces the named grids exactly; other seeds draw (g, q) and phi
from the same ranges with the same counts, cutoffs and dimensions.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from cavsim import Scenario, analytic, cli, evolution, lindblad, presets, validation

REF_DIR = Path(__file__).resolve().parent / "refs"

RECORD_TOL = 1e-8  # branch vs dense, and branch vs closed form
ORACLE_TOL = 1e-6  # oracle vs dense
FIG6_REF_STRIDE = 10  # dense reference at every 10th sample when none is stored
TIME_TOL = 1e-9

FIG6_RANGE = (0.0, 1.0)
FIG6_SAMPLES = 181
DENSE_A2_RANGE = (0.25, 0.75)
DENSE_A2_SEED0 = ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25))
DENSE_A2_SAMPLES = 13
ORACLE_RANGE = (0.025, 0.075)
ORACLE_CHECKPOINTS = 10
QUICK_CHECK_COUNT = 4
QUICK_G_RANGE = (0.025, 0.075)  # quick_checks uses g = 0.05
QUICK_TIME_RANGE = (50.0, 1000.0)  # quick_checks uses t = 120, 400, 900


def _rows(records) -> list[list[float]]:
    return [[r.t_us, r.c_af1, r.c_af2, r.c_f1f2, r.purity] for r in records]


def _label(scenario: Scenario) -> str:
    return (
        f"a{scenario.alpha:g}_b{scenario.beta:g}_g{scenario.gamma_1 / scenario.omega_1:.9g}"
        f"_q{scenario.gamma_2 / scenario.omega_2:.9g}_phi{scenario.phi:.9g}"
    )


def worst_deviation(rows, ref: dict) -> float:
    """Largest |concurrence or purity difference| at the reference samples."""
    if len(rows) != ref["n"]:
        return math.inf
    worst = 0.0
    for i, expected in zip(ref["index"], ref["rows"]):
        got = rows[i]
        if abs(got[0] - expected[0]) > TIME_TOL:
            return math.inf
        worst = max(worst, max(abs(a - b) for a, b in zip(got[1:], expected[1:])))
    return worst


class Workload:
    """Base: ``ops`` are timed; ``tally`` counts failed operations."""

    name = ""
    tol = RECORD_TOL
    ref_stride = 1  # on-the-fly references check every ref_stride-th sample

    def __init__(self, seed: int, smoke: bool, out_dir: Path, ref_dir: Path = REF_DIR):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.trajectories = self.build()  # the inputs, (label, scenario, times) each
        path = ref_dir / f"seed{seed}" / f"{self.name}.json"
        self.reference = None
        if not smoke and path.is_file():
            self.reference = json.loads(path.read_text())["trajectories"]

    def build(self) -> list:
        raise NotImplementedError

    def ops(self) -> list:
        return [lambda traj=traj: self.run(*traj) for traj in self.trajectories]

    def run(self, label, scenario, times):
        raise NotImplementedError

    def capture(self, output):
        """Turn a successful operation's output into checkable rows (untimed)."""
        return output

    def reference_run(self, scenario, times):
        """The independent backend's trajectory for the same inputs."""
        raise NotImplementedError

    def compute_reference(self, stride: int = 1) -> list:
        """Reference rows at every ``stride``-th sample of each trajectory."""
        return [
            {
                "label": label,
                "n": times.size,
                "index": list(range(0, times.size, stride)),
                "rows": _rows(self.reference_run(scenario, times[::stride]).records()),
            }
            for label, scenario, times in self.trajectories
        ]

    def ensure_reference(self) -> None:
        if self.reference is None:
            self.reference = self.compute_reference(self.ref_stride)

    def tally(self, outputs) -> tuple[int, list[str]]:
        """(operations attempted, one entry per failed operation) for one pass."""
        refs = {ref["label"]: ref for ref in self.reference}
        failed = []
        for (label, scenario, _), out in zip(self.trajectories, outputs):
            if isinstance(out, Exception):
                failed.append(f"{label}: {type(out).__name__}: {out}")
                continue
            worst = worst_deviation(out, refs[label]) if label in refs else math.inf
            worst = max(worst, self.extra_deviation(scenario, out))
            if not worst <= self.tol:
                failed.append(f"{label}: deviation {worst:.3e} > {self.tol:.0e}")
        return len(self.trajectories), failed

    def extra_deviation(self, scenario, rows) -> float:
        return 0.0


class Fig6Branch(Workload):
    """``preset fig6``: 16 branch trajectories through compute_records + write_records."""

    name = "fig6-branch"

    def build(self):
        if self.seed == 0:
            scenarios = [job.scenario for job in presets.preset_jobs("fig6")]
        else:
            gs = np.sort(self.rng.uniform(*FIG6_RANGE, 4))
            qs = np.sort(self.rng.uniform(*FIG6_RANGE, 4))
            points = [(g, q) for g in gs for q in qs]
            phis = self.rng.uniform(0.0, 2.0 * math.pi, len(points))
            scenarios = [
                Scenario().variant(g=float(g), q=float(q), alpha=0.5, beta=0.5, phi=float(p))
                for (g, q), p in zip(points, phis)
            ]
        if self.smoke:
            scenarios = scenarios[:2]
        n_samples = 19 if self.smoke else FIG6_SAMPLES
        return [
            (_label(sc), sc, np.linspace(0.0, sc.total_time(), n_samples)) for sc in scenarios
        ]

    def run(self, label, scenario, times):
        path = self.out_dir / f"{label}.csv"
        cli.write_records(path, cli.compute_records(scenario, times, "branch"))
        return path

    def capture(self, output):
        with open(output, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [header.index(c) for c in ("t_us", "C_AF1", "C_AF2", "C_F1F2", "purity")]
            return [[float(row[c]) for c in cols] for row in reader]

    ref_stride = FIG6_REF_STRIDE  # a full dense reference takes about 36 s

    def reference_run(self, scenario, times):
        return evolution.run_scenario(scenario, times)

    def extra_deviation(self, scenario, rows):
        """Stage-1 C_AF1 against the closed form, at every stage-1 sample."""
        t1 = scenario.stage_durations[0]
        return max(
            (abs(r[1] - analytic.concurrence_stage1(r[0], scenario)) for r in rows if r[0] <= t1),
            default=0.0,
        )


class DenseA2(Workload):
    """Dense ``run_scenario`` + ``records()`` at alpha = beta = 2, default cutoffs."""

    name = "dense-a2"

    def build(self):
        if self.seed == 0:
            points = [(g, q, 0.0) for g, q in DENSE_A2_SEED0]
        else:
            points = [
                (*self.rng.uniform(*DENSE_A2_RANGE, 2), self.rng.uniform(0.0, 2.0 * math.pi))
                for _ in DENSE_A2_SEED0
            ]
        if self.smoke:
            points = points[:1]
        n_samples = 3 if self.smoke else DENSE_A2_SAMPLES
        out = []
        for g, q, phi in points:
            sc = Scenario().variant(g=float(g), q=float(q), alpha=2.0, beta=2.0, phi=float(phi))
            out.append((_label(sc), sc, np.linspace(0.0, sc.total_time(), n_samples)))
        return out

    def run(self, label, scenario, times):
        return _rows(evolution.run_scenario(scenario, times).records())

    def reference_run(self, scenario, times):
        return evolution.branch_run(scenario, times)


class OracleA05(Workload):
    """RK4 master-equation oracle at alpha = beta = 0.5, N = 11, 10 checkpoints."""

    name = "oracle-a0.5"
    tol = ORACLE_TOL

    def build(self):
        if self.seed == 0:
            g = q = 0.05
            phi = 0.0
        else:
            g, q = self.rng.uniform(*ORACLE_RANGE, 2)
            phi = self.rng.uniform(0.0, 2.0 * math.pi)
        sc = Scenario().variant(g=float(g), q=float(q), alpha=0.5, beta=0.5, phi=float(phi))
        checkpoints = ORACLE_CHECKPOINTS
        if self.smoke:
            sc = sc.variant(stage_durations=tuple(d / 10.0 for d in sc.stage_durations))
            checkpoints = 4
        return [(_label(sc), sc, np.linspace(0.0, sc.total_time(), checkpoints))]

    def run(self, label, scenario, times):
        return _rows(lindblad.run_oracle(scenario, times).records())

    def reference_run(self, scenario, times):
        return evolution.run_scenario(scenario, times)


class ValidateQuick(Workload):
    """``cavsim validate``: ``validation.quick_checks()``; one operation per CheckResult."""

    name = "validate-quick"

    def build(self):
        if self.seed == 0:
            return []
        g = float(self.rng.uniform(*QUICK_G_RANGE))
        times = np.sort(self.rng.uniform(*QUICK_TIME_RANGE, 3))
        return [(f"stage1_g{g:.9g}", g, times)]

    def ops(self):
        if self.seed == 0:
            return [validation.quick_checks]
        ((_, g, times),) = self.trajectories

        def checks():  # quick_checks() with the drawn g and times
            results = validation.stage1_equivalence((1.0,), (g,), times)
            results.append(validation.concurrence_landmark())
            results.append(validation.snapshot_invariants())
            return results

        return [checks]

    def compute_reference(self, stride: int = 1):
        return []  # the suites check themselves

    def tally(self, outputs):
        (out,) = outputs
        if isinstance(out, Exception):
            error = f"quick checks: {type(out).__name__}: {out}"
            return QUICK_CHECK_COUNT, [error] * QUICK_CHECK_COUNT
        failed = [f"{r.name}: {r.detail}" for r in out if not r.passed]
        missing = max(QUICK_CHECK_COUNT - len(out), 0)
        return len(out) + missing, failed + ["quick checks: result missing"] * missing


WORKLOADS = {cls.name: cls for cls in (Fig6Branch, DenseA2, OracleA05, ValidateQuick)}
