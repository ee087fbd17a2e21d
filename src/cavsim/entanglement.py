"""Pairwise concurrence extraction, purity and the monogamy diagnostic.

The model keeps each field's reduced state on a span of two coherent branches,
so a pair (atom-field or field-field) reduces to an effective two-qubit state
by projecting every oversized subsystem onto the top-2 eigenvectors of its
single-party reduction.  Any probability weight lost in that projection is
reported; it is pure numerics whenever the rank-2 structure is exact.

Extraction runs on stacks: :func:`pairwise_concurrence_stack` takes a
``(S, D, D)`` stack of states of one layout and does every pair trace,
projection and Wootters solve as one batched numpy call over the stack.
Branch records feed it one ``(S, 8, 8)`` stack per trajectory, and each dense
snapshot as a stack-of-one view, so dense snapshots are never copied.
The single-state functions below are stack-of-one calls into the same core,
and a stack entry gives exactly the result of the single-state call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityMatrix, partial_trace, partial_trace_stack

log = logging.getLogger(__name__)

PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(PAULI_Y, PAULI_Y)

SUPPORT_TOL = 1e-10
FLAG_WEIGHT = 1e-3
PURITY_TOL = 1e-6  # impurity up to which monogamy_residual treats a state as pure

_PAIRS = (("AF1", (0, 1)), ("AF2", (0, 2)), ("F1F2", (1, 2)))


@dataclass(frozen=True)
class EffectiveQubitReduction:
    """A two-subsystem state projected onto effective qubit supports."""

    two_qubit_state: np.ndarray
    discarded_weight: float
    support_deficient: bool


def _positive_part(x: np.ndarray) -> np.ndarray:
    # max(0.0, x) elementwise, NaN mapping to 0.0 as Python's max does
    return np.where(x > 0.0, x, 0.0)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron over the last two axes, broadcasting any leading stack axis."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _wootters_stack(mats: np.ndarray) -> np.ndarray:
    """Concurrences of a (S, 4, 4) stack of two-qubit density matrices."""
    evals, evecs = np.linalg.eigh(mats)
    roots = np.sqrt(np.clip(evals, 0.0, None))
    sqrt_rho = (evecs * roots[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    lams = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    return _positive_part(lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])


def _effective_two_qubit_stack(pairs: np.ndarray, dims: tuple[int, int]):
    """Stacked :func:`effective_two_qubit` of (S, da db, da db) pair states of layout ``dims``.

    Returns the (S, 4, 4) projected states and the (S,) discarded weights and
    support-deficiency flags.
    """
    isometries = []
    deficient = np.zeros(len(pairs), dtype=bool)
    for i, d in enumerate(dims):
        if d == 2:
            isometries.append(np.eye(2))
            continue
        evals, evecs = np.linalg.eigh(partial_trace_stack(pairs, dims, (i,)))
        deficient |= evals[:, -2] < SUPPORT_TOL
        isometries.append(evecs[:, :, [-1, -2]])
    v = _kron(*isometries)
    small = np.swapaxes(v.conj(), -1, -2) @ pairs @ v
    kept = np.trace(small, axis1=1, axis2=2).real
    discarded = _positive_part(1.0 - kept)
    # nothing left on the product support: report a maximally mixed stub
    stub = kept <= SUPPORT_TOL
    small = small / np.where(stub, 1.0, kept)[:, None, None]
    small[stub] = np.eye(4) / 4.0
    deficient |= stub
    for weight in discarded[~stub & (SUPPORT_TOL < discarded) & (discarded < FLAG_WEIGHT)]:
        log.warning("effective_two_qubit discarded weight %.3e", weight)
    return small, discarded, deficient


@dataclass(frozen=True)
class PairwiseConcurrences:
    c_af1: float
    c_af2: float
    c_f1f2: float
    discarded_weight: float
    flags: tuple[str, ...]


def pairwise_concurrence_stack(
    data: np.ndarray, dims: tuple[int, ...]
) -> list[PairwiseConcurrences]:
    """Pairwise concurrences of every state in a (S, D, D) stack of layout ``dims``."""
    if len(dims) != 3:
        raise ValueError("pairwise_concurrences expects the full three-subsystem state")
    values = []
    worst = np.zeros(len(data))
    flags: list[list[str]] = [[] for _ in range(len(data))]
    for name, keep in _PAIRS:
        pair_dims = (dims[keep[0]], dims[keep[1]])
        small, discarded, _ = _effective_two_qubit_stack(
            partial_trace_stack(data, dims, keep), pair_dims
        )
        values.append(_wootters_stack(small).tolist())
        worst = np.where(discarded > worst, discarded, worst)
        for i in np.flatnonzero(discarded >= FLAG_WEIGHT):
            flags[i].append(f"support_loss:{name}")
    return [
        PairwiseConcurrences(c1, c2, c3, w, tuple(f))
        for c1, c2, c3, w, f in zip(*values, worst.tolist(), flags)
    ]


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
    return float(_wootters_stack(mat[None])[0])


def effective_two_qubit(rho_pair: DensityMatrix) -> EffectiveQubitReduction:
    """Project a two-subsystem state onto the product of rank-2 supports.

    Each subsystem of dimension > 2 is restricted to the span of the top-2
    eigenvectors of its single-party reduction (deterministic eigensolver
    ordering breaks ties; concurrence is basis-independent within the support).
    A subsystem whose reduction has rank < 2 within ``SUPPORT_TOL`` is padded
    with the eigensolver's next basis vector, which leaves the concurrence at zero.
    """
    dims = rho_pair.layout.dims
    if len(dims) != 2:
        raise ValueError("effective_two_qubit expects a two-subsystem state")
    small, discarded, deficient = _effective_two_qubit_stack(rho_pair.data[None], dims)
    return EffectiveQubitReduction(small[0], float(discarded[0]), bool(deficient[0]))


def pairwise_concurrences(rho: DensityMatrix) -> PairwiseConcurrences:
    """Concurrences of (atom, field1), (atom, field2) and (field1, field2)."""
    return pairwise_concurrence_stack(rho.data[None], rho.layout.dims)[0]


def monogamy_residual(rho: DensityMatrix) -> float | None:
    """CKW residual tau_A - C_AF1^2 - C_AF2^2 for globally pure states.

    Returns None (not applicable) when the global state is mixed beyond
    ``PURITY_TOL``; the tangle is tau_A = 4 det(rho_atom).
    """
    if rho.purity() <= 1.0 - PURITY_TOL:
        return None
    rho_atom = partial_trace(rho, (0,)).data
    tangle = 4.0 * float(np.linalg.det(rho_atom).real)
    pc = pairwise_concurrences(rho)
    return tangle - pc.c_af1**2 - pc.c_af2**2
