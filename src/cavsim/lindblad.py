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
    DensityMatrix,
    Scenario,
    StageKind,
    Trajectory,
    _rotate_atom,
    _stage_plan,
    _traverse,
    initial_density,
)
from .exceptions import StepUnderflow
from .hilbert import HERMITICITY_TOL

MIN_STEP = 1e-9
DRIFT_LIMIT = 1e-8
APPLY_BLOCK = 1 << 15  # complex entries per block of generator rows


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
        # dispersive diagonal: +w(n+1) on |e>, -w n on |g>
        omegas = scenario.omega_active(stage)
        h = np.zeros((2, d1, d2))
        for omega, n in zip(omegas, (n1[:, None], n2[None, :])):
            h[0] += omega * (n + 1.0)
            h[1] -= omega * n
        # -i h on the row index and +i h on the column index of rho; None without a cavity
        self.h_row = (-1j * h).reshape(2, d1, d2, 1, 1, 1) if any(omegas) else None
        self.h_col = (+1j * h).reshape(2, d1, d2) if any(omegas) else None
        if stage is StageKind.RAMSEY:
            duration = scenario.stage_durations[2]
            self.ramsey_rate = scenario.ramsey_angle / duration if duration > 0 else 0.0
        else:
            self.ramsey_rate = 0.0
        # jump factors sqrt(n m) on the shifted Fock indices
        self.sqsq1 = np.einsum("i,j->ij", self.sq1, self.sq1)[:, None, None, :, None]
        self.sqsq2 = np.einsum("i,j->ij", self.sq2, self.sq2)[:, None, None, :]
        # rows of n1 per block: a block and its scratch stay cache-sized
        self.rows = min(d1, max(1, APPLY_BLOCK // (2 * d1 * d2 * d2)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d1, d2 = self.d1, self.d2
        t = rho.reshape(2, d1, d2, 2, d1, d2)
        out = np.zeros_like(t)
        buf = np.empty((self.rows, d2, 2, d1, d2), dtype=complex)
        for s in range(2):
            for a in range(0, d1, self.rows):
                b = min(a + self.rows, d1)
                self._apply_rows(t, out, s, a, b, buf[: b - a])
        return out.reshape(rho.shape)

    def _apply_rows(self, t, out, s, a, b, buf) -> None:
        """The generator on the output rows (s, n1 in [a, b)), term by term.

        Each term is formed in buf before it is added, in the same order for
        every entry as a whole-array evaluation, so the roundings are the same.
        """
        o, x = out[s, a:b], t[s, a:b]
        # -i [H, rho]
        if self.h_row is not None:
            o += np.multiply(self.h_row[s, a:b], x, out=buf)
            o += np.multiply(self.h_col, x, out=buf)
        if self.ramsey_rate:
            r = self.ramsey_rate
            # H = r sigma_x: swap the atomic index on either side
            o += np.multiply(-1j * r, t[1 - s, a:b], out=buf)
            o[:, :, 0] += np.multiply(+1j * r, x[:, :, 1], out=buf[:, :, 0])
            o[:, :, 1] += np.multiply(+1j * r, x[:, :, 0], out=buf[:, :, 0])
        # 2 gamma a rho a^dag for both fields
        top = min(b, self.d1 - 1)
        if self.gamma_1 > 0 and top > a:
            jump = np.multiply(
                t[s, a + 1 : top + 1, :, :, 1:, :], self.sqsq1[a:top], out=buf[: top - a, :, :, 1:, :]
            )
            out[s, a:top, :, :, :-1, :] += np.multiply(2.0 * self.gamma_1, jump, out=jump)
        if self.gamma_2 > 0:
            jump = np.multiply(x[:, 1:, :, :, 1:], self.sqsq2, out=buf[:, 1:, :, :, 1:])
            o[:, :-1, :, :, :-1] += np.multiply(2.0 * self.gamma_2, jump, out=jump)
        # -gamma (n rho + rho n)
        if self.gamma_1 > 0 or self.gamma_2 > 0:
            o -= np.multiply(self.loss_diag[s, a:b, :, None, None, None], x, out=buf)
            o -= np.multiply(self.loss_diag, x, out=buf)


def liouvillian_apply(rho: DensityMatrix, stage: StageKind, scenario: Scenario) -> np.ndarray:
    """Instantaneous generator action d rho/dt for the given stage (rotating frame)."""
    gen = _StageGenerator(scenario, stage, rho.layout.dims)
    return gen.apply(rho.data)


def _rk4(
    gen: _StageGenerator, rho: np.ndarray, h: float, k1: np.ndarray | None = None
) -> np.ndarray:
    """One classic RK4 step; ``k1`` may pass in the already known ``gen.apply(rho)``."""
    if k1 is None:
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
        k1 = gen.apply(rho)  # shared by the full and the first half step
        big = _rk4(gen, rho, h, k1)
        first = _rk4(gen, rho, 0.5 * h, k1)
        del k1
        half = _rk4(gen, first, 0.5 * h)
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
    """Integrate through a stage plan of (StageKind, duration) pairs, sampling at the grid.

    The grid must be non-empty, finite, sorted and inside the plan's span.  A
    sample on a stage boundary belongs to the earlier stage, and a zero-duration
    Ramsey entry applies the instantaneous full-area rotation.
    """

    def advance(rho, stage, taus):
        # integrate forward from the latest sample; taus ends with the stage duration
        gen = _StageGenerator(scenario, stage, rho.layout.dims)
        duration, local, out = taus[-1], 0.0, []
        for tau in taus:
            target = min(max(tau, 0.0), duration)
            if target > local:
                data, _, _ = _advance(gen, rho.data, target - local, config)
                rho, local = DensityMatrix(rho.layout, data), target
            out.append(rho)
        return out

    times, states = _traverse(plan, grid, rho0, advance, _rotate_atom, scenario.ramsey_angle)
    for st in states:
        st.validate()
    return Trajectory(scenario, times, states)


def run_oracle(
    scenario: Scenario, sample_times, config: IntegratorConfig = IntegratorConfig()
) -> Trajectory:
    """Full five-stage traversal via direct integration of the master equation.

    Snapshots are always rotating-frame states, whatever the scenario frame;
    frames are compared on concurrences, which the free phases cannot move.
    """
    scenario = scenario.validate().variant(frame="rotating")
    return integrate(initial_density(scenario), _stage_plan(scenario), sample_times, scenario, config)
