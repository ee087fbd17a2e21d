"""Command-line interface: simulate, sweep, preset, validate, phase-space.

All data products are CSV with the fixed header
``t_us,C_AF1,C_AF2,C_F1F2,discarded_weight,purity,flags``, 12 significant
digits, '.' decimal separator and LF line endings, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 validation failure, 2 config error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from pathlib import Path

import numpy as np

from . import analytic, lindblad, presets, validation
from .config import ConfigError, SweepSpec, parse_config, sweep_filename
from .evolution import (
    Scenario,
    Trajectory,
    branch_run,
    dispersive_validity,
    run_scenario,
)

OUT_ENV = "CAVSIM_OUT"
CSV_HEADER = "t_us,C_AF1,C_AF2,C_F1F2,discarded_weight,purity,flags"
PHASE_HEADER = "t_us,re_alpha_e,im_alpha_e,re_alpha_g,im_alpha_g,chord"

CONVERGE_STEP = 5
CONVERGE_TOL = 1e-6
CONVERGE_MAX_PASSES = 12


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    return format(float(value), ".12g")


def write_records(path: Path, records) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                ",".join(
                    (
                        _fmt(r.t_us),
                        _fmt(r.c_af1),
                        _fmt(r.c_af2),
                        _fmt(r.c_f1f2),
                        _fmt(r.discarded_weight),
                        _fmt(r.purity),
                        r.flags,
                    )
                )
                + "\n"
            )


def write_phase_space(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(PHASE_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _run_backend(scenario: Scenario, times, backend: str) -> Trajectory:
    if backend == "dense":
        return run_scenario(scenario, times)
    if backend == "branch":
        return branch_run(scenario, times)
    if backend == "oracle":
        return lindblad.run_oracle(scenario, times)
    raise ConfigError(f"unknown backend '{backend}'", key="backend")


def compute_records(scenario: Scenario, times, backend: str, converge: bool = False):
    """Records of one trajectory; ``converge`` refines the Fock cutoffs of dense/oracle runs.

    Branch records never depend on the cutoffs, so they return after one pass.
    """
    records = _run_backend(scenario, times, backend).records()
    if not converge or backend == "branch":
        return records
    for _ in range(CONVERGE_MAX_PASSES):
        n1, n2 = scenario.truncations()
        bigger = scenario.variant(n1=n1 + CONVERGE_STEP, n2=n2 + CONVERGE_STEP)
        refined = _run_backend(bigger, times, backend).records()
        change = max(
            max(abs(a.c_af1 - b.c_af1), abs(a.c_af2 - b.c_af2), abs(a.c_f1f2 - b.c_f1f2))
            for a, b in zip(records, refined)
        )
        scenario, records = bigger, refined
        if change < CONVERGE_TOL:
            return records
    raise RuntimeError("truncation convergence pass did not settle")


def _sample_grid(scenario: Scenario, n_samples: int) -> np.ndarray:
    return np.linspace(0.0, scenario.total_time(), n_samples)


def _load_config(path: str) -> tuple[Scenario, SweepSpec]:
    return parse_config(Path(path).read_text())


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.truncation:
        parts = args.truncation.split(",")
        if len(parts) != 2:
            raise ConfigError("expected N1,N2", key="truncation")
        try:
            n1, n2 = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError("expected integers N1,N2", key="truncation") from exc
        scenario = scenario.variant(n1=n1, n2=n2)
    return scenario.validate()


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get(OUT_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sweep_point(task):
    scenario, times, backend, converge, path = task
    records = compute_records(scenario, times, backend, converge)
    write_records(path, records)
    return path.name


def cmd_simulate(args) -> int:
    scenario, sweep = _load_config(args.config)
    scenario = _apply_overrides(scenario, args)
    backend = args.backend or sweep.backend
    dispersive_validity(scenario)
    times = _sample_grid(scenario, sweep.n_samples)
    records = compute_records(scenario, times, backend, args.converge)
    out = _out_dir(args) / (Path(args.config).stem + ".csv")
    write_records(out, records)
    print(out)
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}", key="jobs")
    scenario, sweep = _load_config(args.config)
    scenario = _apply_overrides(scenario, args)
    backend = args.backend or sweep.backend
    out = _out_dir(args)
    alphas = sweep.alpha_values or (scenario.alpha,)
    betas = sweep.beta_values or (scenario.beta,)
    tasks = []
    for alpha in alphas:
        for beta in betas:
            for g in sweep.g_values:
                for q in sweep.q_values:
                    pt = scenario.variant(g=g, q=q, alpha=alpha, beta=beta)
                    times = _sample_grid(pt, sweep.n_samples)
                    path = out / sweep_filename(alpha, beta, g, q)
                    tasks.append((pt, times, backend, args.converge, path))
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for name in pool.map(_sweep_point, tasks):
                print(name)
    else:
        for task in tasks:
            print(_sweep_point(task))
    return 0


def cmd_preset(args) -> int:
    jobs = presets.preset_jobs(args.name)
    out = _out_dir(args)
    for job in jobs:
        scenario = _apply_overrides(job.scenario, args)
        path = out / job.filename
        if job.mode == "analytic":
            write_records(path, presets.analytic_records(scenario, job.sample_times))
        elif job.mode == "phase-space":
            write_phase_space(path, analytic.phase_space_rows(job.sample_times, scenario))
        else:
            backend = args.backend or "branch"
            write_records(
                path, compute_records(scenario, job.sample_times, backend, args.converge)
            )
        print(path)
    return 0


def cmd_validate(args) -> int:
    results = validation.full_checks() if args.full else validation.quick_checks()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_phase_space(args) -> int:
    scenario, sweep = _load_config(args.config)
    scenario = _apply_overrides(scenario, args)
    times = np.linspace(0.0, scenario.stage_durations[0], sweep.n_samples)
    out = _out_dir(args) / (Path(args.config).stem + "_phase_space.csv")
    write_phase_space(out, analytic.phase_space_rows(times, scenario))
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavsim",
        description="Two lossy dispersive cavities + Ramsey zone: pairwise concurrence simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="key = value config file")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or '.')")
        p.add_argument("--backend", choices=("dense", "branch", "oracle"))
        p.add_argument("--truncation", help="override Fock cutoffs as N1,N2")
        p.add_argument(
            "--converge",
            action="store_true",
            help="dense/oracle only: raise the cutoffs by 5 until concurrences move by "
            "< 1e-6 (branch records do not depend on the cutoffs)",
        )

    p = sub.add_parser("simulate", help="single trajectory from a config file")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="one CSV per (alpha, beta, g, q) tuple")
    common(p)
    p.add_argument("--jobs", type=int, default=1, help="concurrent sweep points")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("preset", help="regenerate a named data set")
    p.add_argument("name", choices=presets.PRESET_NAMES)
    common(p, needs_config=False)
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("validate", help="run the certification suites")
    p.add_argument("--full", action="store_true", help="full experimental grid")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("phase-space", help="cavity-1 branch labels in phase space")
    common(p)
    p.set_defaults(func=cmd_phase_space)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
