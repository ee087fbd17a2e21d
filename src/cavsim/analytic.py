"""Closed-form solution while the atom crosses the first cavity.

While the atom is inside cavity 1 the state stays a two-branch superposition:
the field label correlated with |e> rotates one way, the one correlated with
|g> the other, both shrinking under damping, while field 2 stays a factorized
coherent state.  The atomic coherence carries the scalar factor x(t); the
atom-field-1 concurrence follows in closed form from |x| and the exact
coherent overlap of the two labels.  This module is the truncation-free oracle
for the numerical backends and the fast path for single-cavity outputs.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import Scenario
from .hilbert import (
    DensityMatrix,
    coherent_overlap,
    coherent_vector,
    standard_layout,
)


def branch_amplitudes(t: float, scenario: Scenario) -> tuple[complex, complex, complex]:
    """Coherent labels (alpha_e, alpha_g, beta_1) at time t inside cavity 1.

    In the rotating frame: alpha_e = alpha e^{-i w1 t - g1 t},
    alpha_g = alpha e^{+i w1 t - g1 t}, beta_1 = beta e^{-g2 t}; the lab frame
    multiplies each label by its cavity phase e^{-i wtilde_i t}.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    sc = scenario
    alpha_e = sc.alpha * np.exp((-1j * sc.omega_1 - sc.gamma_1) * t)
    alpha_g = sc.alpha * np.exp((+1j * sc.omega_1 - sc.gamma_1) * t)
    beta_1 = sc.beta * np.exp(-sc.gamma_2 * t)
    if sc.frame == "lab":
        alpha_e = alpha_e * np.exp(-1j * sc.omega_tilde(1) * t)
        alpha_g = alpha_g * np.exp(-1j * sc.omega_tilde(1) * t)
        beta_1 = beta_1 * np.exp(-1j * sc.omega_tilde(2) * t)
    return complex(alpha_e), complex(alpha_g), complex(beta_1)


def _f_x(t: float, gamma: float, omega: float) -> complex:
    z = gamma + 1j * omega
    w = 2.0 * z * t
    if abs(w) < 1e-6:
        # gamma/z (1 - e^{-2 z t}) = 2 gamma t (1 - w/2 + w^2/6 - ...)
        first = 2.0 * gamma * t * (1.0 - w / 2.0 + w * w / 6.0)
    else:
        first = gamma / z * (1.0 - np.exp(-w))
    return complex(first - (1.0 - math.exp(-2.0 * gamma * t)))


def coherence_factor(t: float, scenario: Scenario) -> complex:
    """Scalar multiplier x(t) of the |e><g| branch during the cavity-1 crossing.

    x(t) = exp(-i phi/2 + |alpha|^2 f_x(t) - i w1 t), with
    f_x(t) = g1/(g1+i w1) (1 - e^{-2(g1+i w1)t}) - (1 - e^{-2 g1 t}); the lab
    frame adds the atomic free phase e^{-i wa t}.  |x| is frame independent.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    sc = scenario
    fx = _f_x(t, sc.gamma_1, sc.omega_1)
    phase = -1j * sc.omega_1 * t
    if sc.frame == "lab":
        phase = phase - 1j * sc.omega_a * t
    return complex(np.exp(-0.5j * sc.phi + abs(sc.alpha) ** 2 * fx + phase))


def concurrence_stage1(t: float, scenario: Scenario) -> float:
    """Atom-field-1 concurrence |x(t)| sqrt(1 - |<alpha_g|alpha_e>|^2).

    The overlap uses the exact continuous formula, so this path carries no
    truncation error at all.
    """
    alpha_e, alpha_g, _ = branch_amplitudes(t, scenario)
    overlap = coherent_overlap(alpha_g, alpha_e)
    inside = max(0.0, 1.0 - abs(overlap) ** 2)
    return abs(coherence_factor(t, scenario)) * math.sqrt(inside)


def stage1_purity(t: float, scenario: Scenario) -> float:
    """Global purity (1 + |x|^2)/2 during the cavity-1 crossing."""
    return 0.5 * (1.0 + abs(coherence_factor(t, scenario)) ** 2)


def rho_stage1(t: float, scenario: Scenario) -> DensityMatrix:
    """Densified two-branch state at time t inside cavity 1.

    (1/2){ |e,ae><e,ae| + x |e,ae><g,ag| + h.c. + |g,ag><g,ag| } (x) |b1><b1|
    at the scenario truncations.
    """
    sc = scenario
    if t > sc.stage_durations[0] + 1e-9:
        raise ValueError("t lies beyond the cavity-1 stage")
    n1, n2 = sc.truncations()
    alpha_e, alpha_g, beta_1 = branch_amplitudes(t, sc)
    x = coherence_factor(t, sc)
    ce = coherent_vector(alpha_e, n1)
    cg = coherent_vector(alpha_g, n1)
    ke = np.kron(np.array([1.0, 0.0]), ce)
    kg = np.kron(np.array([0.0, 1.0]), cg)
    atom_field1 = 0.5 * (
        np.outer(ke, ke.conj())
        + x * np.outer(ke, kg.conj())
        + np.conj(x) * np.outer(kg, ke.conj())
        + np.outer(kg, kg.conj())
    )
    cb = coherent_vector(beta_1, n2)
    full = np.einsum(
        "anbm,jk->anjbmk",
        atom_field1.reshape(2, n1 + 1, 2, n1 + 1),
        np.outer(cb, cb.conj()),
    )
    layout = standard_layout(n1, n2)
    return DensityMatrix(layout, full.reshape(layout.dim, layout.dim))


def phase_space_rows(times, scenario: Scenario) -> list[tuple[float, ...]]:
    """Cavity-1 branch labels in the cavity-frequency rotating frame.

    Rows of (t, Re ae, Im ae, Re ag, Im ag, |ae - ag|); the frame setting of the
    scenario is ignored because the export is defined in the rotating frame.
    """
    sc = scenario if scenario.frame == "rotating" else scenario.variant(frame="rotating")
    rows = []
    for t in times:
        ae, ag, _ = branch_amplitudes(float(t), sc)
        rows.append(
            (
                float(t),
                ae.real,
                ae.imag,
                ag.real,
                ag.imag,
                abs(ae - ag),
            )
        )
    return rows
