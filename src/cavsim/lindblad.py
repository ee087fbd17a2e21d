"""Brute-force master-equation integrator used to certify the factorized maps.

Integrates d rho/dt = -i [H, rho] + sum_i gamma_i (2 a_i rho a_i^dag
- a_i^dag a_i rho - rho a_i^dag a_i) in the truncated basis with a classic
4th-order Runge-Kutta step.  The integration always runs in the rotating frame
(the lab-frame free Hamiltonian would demand steps about nine orders of
magnitude smaller); cross-frame comparisons are done on concurrences, never on
raw states.

Per stage, every diagonal term of the generator (the dispersive commutator and
the -gamma (n rho + rho n) loss) is one precomputed D x D factor, so an apply is
that elementwise product and the two shifted jump slices a rho a^dag (with 2 gamma
folded into their sqrt(n m) factors).

In the Ramsey zone the drive H = r sigma_x acts on the atom alone, the loss on the
fields alone, and no dispersive term is active, so the two generators commute and
exp(tau L) = exp(tau L_R) exp(tau L_loss) exactly.  The zone is therefore integrated
with the loss generator of a free flight, and each state is then pulsed in closed
form by R = exp(-i theta sigma_x), theta the pulse area so far (the integrating-factor
form of the step, Lawson, SIAM J. Numer. Anal. 4, 372 (1967)).  The pulse is this
module's own (:func:`_pulse`): the oracle shares no rotation code with the dense
backend it certifies.

Error control is step doubling: an attempt is one full step and two half steps
(three ``_rk4`` calls), accepted when max|full - halves| <= ``ABS_TOL``.  For the
stage's constant, linear L an RK4 step is the Taylor sum of (hL)^k rho / k! to
k = 4 (Moler & Van Loan, SIAM Rev. 45, 3 (2003), section 4), so the first two
calls share L rho ... L^4 rho, kept after a rejection: 8 applies, 4 per retry.
After every attempt the next step is the attempted one times
min(MAX_FACTOR, max(MIN_FACTOR, SAFETY (ABS_TOL / err)^(1/5))) (Hairer, Norsett
& Wanner, Solving ODEs I, II.4).  :func:`run_oracle` walks a scenario's stages
through the traversal of the closed-form backends (:func:`cavsim.evolution._traverse`)
in one pass per stage, so the step size carries over from one sample to the next.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import (
    DensityMatrix,
    Scenario,
    StageKind,
    Trajectory,
    _density_start,
    _ramsey_area,
    _traverse,
)
from .exceptions import StepUnderflow
from .hilbert import HERMITICITY_TOL, hermiticity_defect

INITIAL_STEP = 0.1  # us, the first attempt of each stage
ABS_TOL = 1e-11  # largest accepted max|full step - two half steps|
MAX_STEP = 2.0  # us
MIN_STEP = 1e-9
SAFETY = 0.9  # step controller factors, see the module docstring
MIN_FACTOR = 0.2
MAX_FACTOR = 4.0
DRIFT_LIMIT = 1e-8


class _StageGenerator:
    """Right-hand side of the rotating-frame master equation for one stage."""

    def __init__(self, scenario: Scenario, stage: StageKind, dims: tuple[int, ...]):
        d1, d2 = dims[1], dims[2]
        self.shape = (2, d1, d2, 2, d1, d2)
        n1 = np.arange(d1, dtype=float)[:, None]
        n2 = np.arange(d2, dtype=float)[None, :]
        # dispersive diagonal: +w(n+1) on |e>, -w n on |g>
        h = np.zeros((2, d1, d2))
        for omega, n in zip(scenario.omega_active(stage), (n1, n2)):
            h[0] += omega * (n + 1.0)
            h[1] -= omega * n
        h = h.ravel()
        # loss-rate diagonal gamma_1 n1 + gamma_2 n2 over (atom, f1, f2)
        loss = np.broadcast_to(scenario.gamma_1 * n1 + scenario.gamma_2 * n2, (2, d1, d2)).ravel()
        # -i (h_row - h_col) - (loss_row + loss_col): every diagonal term in one factor
        self.diag = -1j * (h[:, None] - h[None, :]) - (loss[:, None] + loss[None, :])
        # 2 gamma sqrt(n m) on the shifted Fock indices of a rho a^dag; None without loss
        sq1, sq2 = np.sqrt(np.arange(1, d1)), np.sqrt(np.arange(1, d2))
        jump1 = 2.0 * scenario.gamma_1 * np.multiply.outer(sq1, sq1)
        jump2 = 2.0 * scenario.gamma_2 * np.multiply.outer(sq2, sq2)
        self.jump1 = jump1[:, None, None, :, None] if scenario.gamma_1 > 0 else None
        self.jump2 = jump2[:, None, None, :] if scenario.gamma_2 > 0 else None

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.diag * rho
        t, o = rho.reshape(self.shape), out.reshape(self.shape)
        if self.jump1 is not None:
            o[:, :-1, :, :, :-1] += self.jump1 * t[:, 1:, :, :, 1:]
        if self.jump2 is not None:
            o[:, :, :-1, :, :, :-1] += self.jump2 * t[:, :, 1:, :, :, 1:]
        return out


def _pulse(data: np.ndarray, theta: float) -> np.ndarray:
    """data <- R data R^dag in place for R = exp(-i theta sigma_x) on the atom.

    The atom is the slow index, so R mixes the two halves x, y of the rows, then
    R^dag those of the columns.  In the sigma_x eigenbasis R multiplies x + y by
    e^{-i theta} and x - y by e^{i theta}, R^dag by the conjugates: one half-size
    temporary per pass.
    """
    n, rotor = len(data) // 2, complex(math.cos(theta), -math.sin(theta))  # e^{-i theta}
    for view, phase in ((data, rotor), (data.T, rotor.conjugate())):
        x, y = view[:n], view[n:]
        plus = x + y
        plus *= phase
        x -= y
        x *= phase.conjugate()
        np.subtract(plus, x, out=y)
        y *= 0.5  # the new y, (plus - minus) / 2
        x += y  # the new x, minus + y
    return data


def _kick(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """The pulse of a zero-duration Ramsey zone, on a copy (rho may be a snapshot)."""
    return DensityMatrix(rho.layout, _pulse(rho.data.copy(), theta))


def _powers(gen: _StageGenerator, rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """L rho, L^2 rho, L^3 rho, L^4 rho."""
    powers = [gen.apply(rho)]
    for _ in range(3):
        powers.append(gen.apply(powers[-1]))
    return tuple(powers)


def _rk4(
    gen: _StageGenerator, rho: np.ndarray, h: float, powers: tuple | None = None
) -> np.ndarray:
    """One classic RK4 step, rho + sum_k (hL)^k rho / k! to k = 4: the Horner sum of ``powers``
    (:func:`_powers` of ``rho``) in a new array, else added term by term into ``rho`` itself."""
    if powers is None:
        term = rho
        for k in range(1, 5):
            term = gen.apply(term)
            term *= h / k  # (hL)^k rho / k!, as L is linear
            rho += term
        return rho
    out = powers[3] * (h / 4.0)
    for k in (3, 2, 1):
        out += powers[k - 1]
        out *= h / k
    return np.add(out, rho, out=out)


def _advance(gen: _StageGenerator, rho: np.ndarray, targets):
    """Integrate from 0 through the sorted ``targets``, carrying the step size over.

    Returns (one state per target, max trace drift, accepted step count).
    """
    t, h = 0.0, INITIAL_STEP
    max_drift, steps, states, powers = 0.0, 0, [], None
    for target in targets:
        while t < target - 1e-12 * max(1.0, target):
            h = min(h, MAX_STEP)
            step = min(h, target - t)
            if powers is None:  # shared by the full and first half step; a rejection keeps rho
                powers = _powers(gen, rho)
            half = _rk4(gen, _rk4(gen, rho, 0.5 * step, powers), 0.5 * step)
            # the full step lives only as long as its difference from the two half steps
            err = float(np.max(np.abs(_rk4(gen, rho, step, powers) - half)))
            if math.isnan(err):  # rejected and shrunk like an infinite error
                err = math.inf
            ratio = SAFETY * (ABS_TOL / err) ** 0.2 if err > 0 else MAX_FACTOR
            proposal = step * min(MAX_FACTOR, max(MIN_FACTOR, ratio))
            if err > ABS_TOL:
                h = proposal
                if h < MIN_STEP:
                    raise StepUnderflow(
                        f"required step below {MIN_STEP} us (local error {err:.3e}); "
                        "reduce the truncation"
                    )
                continue
            # a step cut short to land on the target says nothing against h
            h = proposal if step == h else max(h, proposal)
            t += step
            steps += 1
            powers = None
            tr = float(np.trace(half).real)
            drift = abs(tr - 1.0)
            if not drift <= DRIFT_LIMIT:  # NaN fails too
                raise StepUnderflow(f"trace drift {drift:.3e} per step exceeds {DRIFT_LIMIT}")
            max_drift = max(max_drift, drift)
            rho = np.divide(half, tr, out=half)
            herm = hermiticity_defect(rho)
            if not herm <= HERMITICITY_TOL:
                raise StepUnderflow(f"Hermiticity drift {herm:.3e} during integration")
        states.append(rho)
    return states, max_drift, steps


def run_oracle(scenario: Scenario, sample_times, initial: DensityMatrix | None = None) -> Trajectory:
    """Five-stage traversal by direct integration of the master equation.

    Samples and ``initial`` follow :func:`~cavsim.evolution.run_scenario`.
    Snapshots are always rotating-frame states, whatever the scenario frame;
    frames are compared on concurrences, which the free phases cannot move.
    """
    scenario = scenario.validate().variant(frame="rotating")
    state = _density_start(scenario, initial)

    def advance(rho, stage, taus):
        # one pass through the stage, up to its last entry
        targets = np.clip(taus, 0.0, scenario.stage_durations[stage.value])
        if targets[-1] == 0:  # nothing to integrate (e.g. a zero-duration stage): no generator
            return [rho] * len(taus)
        gen = _StageGenerator(scenario, stage, rho.layout.dims)
        states, _, _ = _advance(gen, rho.data, targets)
        if stage is StageKind.RAMSEY and scenario.ramsey_angle != 0.0:
            # the drive commutes with the loss: pulse each distinct state once, by the area
            # of its first target; the stage-start array may be a snapshot, so it is copied
            pulsed, last = [], None
            for tau, data in zip(targets, states):
                if data is not last:
                    last, theta = data, _ramsey_area(scenario, tau)
                    pulse = _pulse(data.copy() if data is rho.data else data, theta)
                pulsed.append(pulse)
            states = pulsed
        return [DensityMatrix(rho.layout, data) for data in states]

    times, walk = _traverse(scenario, sample_times, state, advance, _kick)
    states = list(walk())  # integrated up front, so errors surface here
    for st in states:
        st.validate()
    return Trajectory(scenario, times, states.__iter__)
