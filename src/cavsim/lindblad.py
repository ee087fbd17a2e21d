"""Brute-force master-equation integrator used to certify the factorized maps.

Integrates d rho/dt = -i [H, rho] + sum_i gamma_i (2 a_i rho a_i^dag
- a_i^dag a_i rho - rho a_i^dag a_i) in the truncated basis with a classic
4th-order Runge-Kutta step and step-halving error control.  The integration
always runs in the rotating frame (the lab-frame free Hamiltonian would demand
steps about nine orders of magnitude smaller); cross-frame comparisons are done
on concurrences, never on raw states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import (
    STAGE_ORDER,
    DensityMatrix,
    Scenario,
    StageKind,
    Trajectory,
    _conjugate_atom,
    initial_density,
    ramsey_unitary,
)
from .exceptions import StepUnderflow
from .hilbert import HERMITICITY_TOL

MIN_STEP = 1e-9
DRIFT_LIMIT = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    initial_step: float = 0.1
    abs_tol: float = 1e-11
    max_step: float = 2.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.initial_step <= 0 or self.max_step <= 0:
            raise ValueError("integrator tolerances and steps must be positive")


class _StageGenerator:
    """Right-hand side of the rotating-frame master equation for one stage."""

    def __init__(self, scenario: Scenario, stage: StageKind, dims: tuple[int, ...]):
        d1, d2 = dims[1], dims[2]
        self.d1, self.d2 = d1, d2
        self.gamma_1, self.gamma_2 = scenario.gamma_1, scenario.gamma_2
        self.sq1 = np.sqrt(np.arange(1, d1))
        self.sq2 = np.sqrt(np.arange(1, d2))
        n1 = np.arange(d1, dtype=float)
        n2 = np.arange(d2, dtype=float)
        # total loss-rate diagonal gamma_1 n1 + gamma_2 n2 over (atom, f1, f2)
        self.loss_diag = (
            self.gamma_1 * n1[None, :, None] + self.gamma_2 * n2[None, None, :]
        ) * np.ones((2, 1, 1))
        w1k, w2k = scenario.omega_active(stage)
        if w1k or w2k:
            # dispersive diagonal: +w(n+1) on |e>, -w n on |g>
            h = np.zeros((2, d1, d2))
            if w1k:
                h[0] += w1k * (n1[:, None] + 1.0)
                h[1] += -w1k * n1[:, None]
            if w2k:
                h[0] += w2k * (n2[None, :] + 1.0)
                h[1] += -w2k * n2[None, :]
            self.hdiag = h.reshape(-1)
        else:
            self.hdiag = None
        if stage is StageKind.RAMSEY:
            duration = scenario.stage_durations[2]
            self.ramsey_rate = scenario.ramsey_angle / duration if duration > 0 else 0.0
        else:
            self.ramsey_rate = 0.0

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d1, d2 = self.d1, self.d2
        t = rho.reshape(2, d1, d2, 2, d1, d2)
        out = np.zeros_like(t)
        # -i [H, rho]
        if self.hdiag is not None:
            flat = out.reshape(rho.shape)
            flat += -1j * self.hdiag[:, None] * rho
            flat += +1j * self.hdiag[None, :] * rho
        if self.ramsey_rate:
            r = self.ramsey_rate
            # H = r sigma_x: swap the atomic index on either side
            out[0] += -1j * r * t[1]
            out[1] += -1j * r * t[0]
            out[:, :, :, 0] += +1j * r * t[:, :, :, 1]
            out[:, :, :, 1] += +1j * r * t[:, :, :, 0]
        # 2 gamma a rho a^dag for both fields
        if self.gamma_1 > 0:
            jump = t[:, 1:, :, :, 1:, :] * np.einsum("i,j->ij", self.sq1, self.sq1)[
                None, :, None, None, :, None
            ]
            out[:, :-1, :, :, :-1, :] += 2.0 * self.gamma_1 * jump
        if self.gamma_2 > 0:
            jump = t[:, :, 1:, :, :, 1:] * np.einsum("i,j->ij", self.sq2, self.sq2)[
                None, None, :, None, None, :
            ]
            out[:, :, :-1, :, :, :-1] += 2.0 * self.gamma_2 * jump
        # -gamma (n rho + rho n)
        if self.gamma_1 > 0 or self.gamma_2 > 0:
            out -= self.loss_diag[:, :, :, None, None, None] * t
            out -= self.loss_diag[None, None, None, :, :, :] * t
        return out.reshape(rho.shape)


def liouvillian_apply(rho: DensityMatrix, stage: StageKind, scenario: Scenario) -> np.ndarray:
    """Instantaneous generator action d rho/dt for the given stage (rotating frame)."""
    gen = _StageGenerator(scenario, stage, rho.layout.dims)
    return gen.apply(rho.data)


def _rk4(gen: _StageGenerator, rho: np.ndarray, h: float) -> np.ndarray:
    k1 = gen.apply(rho)
    k2 = gen.apply(rho + (0.5 * h) * k1)
    k3 = gen.apply(rho + (0.5 * h) * k2)
    k4 = gen.apply(rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(gen: _StageGenerator, rho: np.ndarray, span: float, config: IntegratorConfig):
    """Integrate over one interval, returning (rho, max trace drift, step count)."""
    t = 0.0
    h = min(config.initial_step, config.max_step, span) if span > 0 else 0.0
    max_drift = 0.0
    steps = 0
    while t < span - 1e-12 * max(1.0, span):
        h = min(h, config.max_step, span - t)
        big = _rk4(gen, rho, h)
        half = _rk4(gen, _rk4(gen, rho, 0.5 * h), 0.5 * h)
        err = float(np.max(np.abs(big - half)))
        if err > config.abs_tol:
            h *= 0.5
            if h < MIN_STEP:
                raise StepUnderflow(
                    f"required step below {MIN_STEP} us (local error {err:.3e}); "
                    "loosen abs_tol or reduce the truncation"
                )
            continue
        rho = half
        t += h
        steps += 1
        tr = float(np.trace(rho).real)
        drift = abs(tr - 1.0)
        if drift > DRIFT_LIMIT:
            raise StepUnderflow(
                f"trace drift {drift:.3e} per step exceeds {DRIFT_LIMIT}; "
                "tighten abs_tol or shrink initial_step"
            )
        max_drift = max(max_drift, drift)
        rho = rho / tr
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > HERMITICITY_TOL:
            raise StepUnderflow(f"Hermiticity drift {herm:.3e} during integration")
        if err < config.abs_tol / 64.0:
            h *= 2.0
    return rho, max_drift, steps


def integrate(
    rho0: DensityMatrix,
    plan,
    grid,
    scenario: Scenario,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate through a stage plan, sampling at the grid times.

    ``plan`` is a sequence of (StageKind, duration) pairs; the grid must be
    sorted and lie within the plan's total span.  A zero-duration Ramsey entry
    applies the instantaneous full-area rotation.
    """
    times = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(np.diff(times) < 0):
        raise ValueError("grid must be sorted")
    total = float(sum(d for _, d in plan))
    if times.size and (times[0] < -1e-12 or times[-1] > total + 1e-9):
        raise ValueError("grid outside the plan time span")
    dims = rho0.layout.dims
    rho = rho0.data.copy()
    states: list = [None] * times.size
    pos = 0
    t_start = 0.0
    for stage, duration in plan:
        gen = _StageGenerator(scenario, stage, dims)
        t_end = t_start + duration
        local = 0.0
        while pos < times.size and times[pos] <= t_end + 1e-12:
            target = min(max(times[pos] - t_start, 0.0), duration)
            if target > local:
                rho, _, _ = _advance(gen, rho, target - local, config)
                local = target
            states[pos] = DensityMatrix(rho0.layout, rho.copy())
            pos += 1
        if duration > local:
            rho, _, _ = _advance(gen, rho, duration - local, config)
        if duration == 0 and stage is StageKind.RAMSEY and scenario.ramsey_angle != 0.0:
            rho = _conjugate_atom(rho, ramsey_unitary(scenario.ramsey_angle), dims[1] * dims[2])
        t_start = t_end
    for st in states:
        if st is not None:
            st.validate()
    return Trajectory(scenario, times, states)


def run_oracle(
    scenario: Scenario, sample_times, config: IntegratorConfig = IntegratorConfig()
) -> Trajectory:
    """Full five-stage traversal via direct integration of the master equation.

    Snapshots are always rotating-frame states, whatever the scenario frame;
    frames are compared on concurrences, which the free phases cannot move.
    """
    scenario.validate()
    if scenario.frame != "rotating":
        import dataclasses

        scenario = dataclasses.replace(scenario, frame="rotating")
    plan = list(zip(STAGE_ORDER, scenario.stage_durations))
    return integrate(initial_density(scenario), plan, sample_times, scenario, config)
