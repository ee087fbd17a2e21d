"""Pairwise concurrence extraction, purity and the monogamy diagnostic.

The model keeps each field's reduced state on a span of two coherent branches,
so a pair (atom-field or field-field) reduces to an effective two-qubit state
by projecting every oversized subsystem onto the top-2 eigenvectors of its
single-party reduction.  Any probability weight lost in that projection is
reported; it is pure numerics whenever the rank-2 structure is exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityMatrix, partial_trace

log = logging.getLogger(__name__)

PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(PAULI_Y, PAULI_Y)

SUPPORT_TOL = 1e-10
FLAG_WEIGHT = 1e-3


@dataclass(frozen=True)
class EffectiveQubitReduction:
    """A two-subsystem state projected onto effective qubit supports."""

    two_qubit_state: np.ndarray
    support_bases: tuple
    discarded_weight: float
    support_deficient: bool


def wootters_concurrence(rho) -> float:
    """Concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (sy (x) sy) rho* (sy (x) sy), evaluated as the singular
    values of sqrt(rho) (sy (x) sy) sqrt(rho)* with the eigenvalues of rho
    clipped at zero.  On rank-deficient states C is good to about 1e-8, not to
    machine precision: a zero eigenvalue of rho computed as +-1e-16 enters
    sqrt(rho) as up to 1e-8 (two exact representations of one pure state have
    given concurrences 5e-9 apart).
    """
    mat = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if mat.shape != (4, 4):
        raise ValueError("wootters_concurrence expects a 4x4 density matrix")
    evals, evecs = np.linalg.eigh(mat)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    lams = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def effective_two_qubit(rho_pair: DensityMatrix, tol: float = SUPPORT_TOL) -> EffectiveQubitReduction:
    """Project a two-subsystem state onto the product of rank-2 supports.

    Each subsystem of dimension > 2 is restricted to the span of the top-2
    eigenvectors of its single-party reduction (deterministic eigensolver
    ordering breaks ties; concurrence is basis-independent within the support).
    A subsystem whose reduction has rank < 2 within ``tol`` is padded with the
    eigensolver's next basis vector, which leaves the concurrence at zero.
    """
    dims = rho_pair.layout.dims
    if len(dims) != 2:
        raise ValueError("effective_two_qubit expects a two-subsystem state")
    isometries = []
    deficient = False
    for i, d in enumerate(dims):
        if d == 2:
            isometries.append(None)
            continue
        reduced = partial_trace(rho_pair, (i,)).data
        evals, evecs = np.linalg.eigh(reduced)
        if evals[-2] < tol:
            deficient = True
        isometries.append(evecs[:, [-1, -2]])
    va = isometries[0] if isometries[0] is not None else np.eye(2)
    vb = isometries[1] if isometries[1] is not None else np.eye(2)
    v = np.kron(va, vb)
    small = v.conj().T @ rho_pair.data @ v
    kept = float(np.trace(small).real)
    discarded = max(0.0, 1.0 - kept)
    if kept <= tol:
        # nothing left on the product support; report a maximally mixed stub
        return EffectiveQubitReduction(np.eye(4) / 4.0, tuple(isometries), discarded, True)
    small = small / kept
    if SUPPORT_TOL < discarded < FLAG_WEIGHT:
        log.warning("effective_two_qubit discarded weight %.3e", discarded)
    return EffectiveQubitReduction(small, tuple(isometries), discarded, deficient)


@dataclass(frozen=True)
class PairwiseConcurrences:
    c_af1: float
    c_af2: float
    c_f1f2: float
    discarded_weight: float
    flags: tuple[str, ...]


def pairwise_concurrences(rho: DensityMatrix) -> PairwiseConcurrences:
    """Concurrences of (atom, field1), (atom, field2) and (field1, field2)."""
    if len(rho.layout.dims) != 3:
        raise ValueError("pairwise_concurrences expects the full three-subsystem state")
    values = []
    worst = 0.0
    flags = []
    for name, keep in (("AF1", (0, 1)), ("AF2", (0, 2)), ("F1F2", (1, 2))):
        pair = partial_trace(rho, keep)
        red = effective_two_qubit(pair)
        values.append(wootters_concurrence(red.two_qubit_state))
        worst = max(worst, red.discarded_weight)
        if red.discarded_weight >= FLAG_WEIGHT:
            flags.append(f"support_loss:{name}")
    return PairwiseConcurrences(values[0], values[1], values[2], worst, tuple(flags))


def monogamy_residual(rho: DensityMatrix, purity_tol: float = 1e-6) -> float | None:
    """CKW residual tau_A - C_AF1^2 - C_AF2^2 for globally pure states.

    Returns None (not applicable) when the global state is mixed beyond
    ``purity_tol``; the tangle is tau_A = 4 det(rho_atom).
    """
    if rho.purity() <= 1.0 - purity_tol:
        return None
    rho_atom = partial_trace(rho, (0,)).data
    tangle = 4.0 * float(np.linalg.det(rho_atom).real)
    pc = pairwise_concurrences(rho)
    return tangle - pc.c_af1**2 - pc.c_af2**2
