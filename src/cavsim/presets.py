"""Named scenario presets that regenerate the headline data sets as CSV.

Each preset returns a list of jobs; the CLI materializes them into files.  The
single-cavity preset (``fig2``) is served by the closed-form path, the
five-stage presets by the certified coherent-branch backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic
from .config import encode_value, sweep_filename
from .evolution import ConcurrenceRecord, Scenario

PRESET_NAMES = ("fig2", "fig4", "fig5", "fig6", "fig7", "full")

_RATE_GRID = (0.0, 0.05, 0.5, 1.0)


@dataclass(frozen=True)
class PresetJob:
    filename: str
    scenario: Scenario
    sample_times: np.ndarray
    mode: str  # "analytic" | "branch" | "phase-space"


def _single_cavity(scenario: Scenario) -> Scenario:
    return scenario.variant(stage_durations=(1000.0, 0.0, 0.0, 0.0, 0.0))


def preset_jobs(name: str) -> list[PresetJob]:
    base = Scenario()
    if name == "full":
        return [job for sub in PRESET_NAMES if sub != "full" for job in preset_jobs(sub)]
    if name == "fig2":
        grid = np.linspace(0.0, 1000.0, 501)
        jobs = [
            PresetJob(
                f"fig2_a{encode_value(alpha)}_g{encode_value(g)}.csv",
                _single_cavity(base.variant(g=g, q=0.0, alpha=alpha)),
                grid,
                "analytic",
            )
            for alpha in (0.5, 1.0, 2.0)
            for g in _RATE_GRID
        ]
        # companion phase-space trajectories (dissipationless and g = 0.2)
        jobs.extend(
            PresetJob(
                f"phase_space_a1_g{encode_value(g)}.csv",
                _single_cavity(base.variant(g=g, q=0.0, alpha=1.0)),
                grid,
                "phase-space",
            )
            for g in (0.0, 0.2)
        )
        return jobs
    if name == "fig4":
        combos = [(0.5, 0.5, 0.0, q) for q in _RATE_GRID]
    elif name == "fig5":
        combos = [(0.5, 0.5, g, 0.0) for g in _RATE_GRID]
    elif name == "fig6":
        combos = [(0.5, 0.5, g, q) for g in _RATE_GRID for q in _RATE_GRID]
    elif name == "fig7":
        combos = [(0.5, beta, 0.0, q) for beta in (1.0, 2.0) for q in (0.0, 0.5, 1.0)]
    else:
        raise ValueError(f"unknown preset '{name}' (expected one of {PRESET_NAMES})")
    jobs = []
    for alpha, beta, g, q in combos:
        sc = base.variant(g=g, q=q, alpha=alpha, beta=beta)
        grid = np.linspace(0.0, sc.total_time(), 181)
        jobs.append(PresetJob(f"{name}_{sweep_filename(alpha, beta, g, q)}", sc, grid, "branch"))
    return jobs


def analytic_records(scenario: Scenario, times) -> list[ConcurrenceRecord]:
    """Closed-form single-cavity records: field 2 factorizes, so only C_AF1 is nonzero."""
    recs = []
    for t in times:
        t = float(t)
        recs.append(
            ConcurrenceRecord(
                t_us=t,
                c_af1=analytic.concurrence_stage1(t, scenario),
                c_af2=0.0,
                c_f1f2=0.0,
                discarded_weight=0.0,
                purity=analytic.stage1_purity(t, scenario),
                flags="",
            )
        )
    return recs
