"""Finite-dimensional states and operators: truncated Fock modes, coherent states,
partial traces and distance/statistics helpers.

Conventions used throughout the package:

* subsystem order is always (atom, field 1, field 2);
* the atomic basis is index 0 = excited ``|e>``, index 1 = ground ``|g>``;
* a field truncated at ``N`` keeps the Fock states ``|0> .. |N>`` (dimension N+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonPhysicalState, TruncationTooSmall

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
TAIL_TOL = 1e-10  # largest coherent-state mass a Fock cutoff may drop
CHOLESKY_SAFETY = 8.0  # factor k of the shift in certified_min_eigenvalue
UNIT_ROUNDOFF = np.finfo(float).eps / 2

EXCITED = 0
GROUND = 1


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem dimensions and names of a composite space."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must have equal length")
        if any(d < 1 for d in self.dims):
            raise ValueError("subsystem dimensions must be positive")
        if "atom" in self.labels and self.dims[self.labels.index("atom")] != 2:
            raise ValueError("the atom subsystem must have dimension 2")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, subsystem: int | str) -> int:
        if isinstance(subsystem, str):
            return self.labels.index(subsystem)
        if not 0 <= subsystem < len(self.dims):
            raise ValueError(f"subsystem index {subsystem} out of range")
        return subsystem

    def subset(self, keep: tuple[int, ...]) -> "SubsystemLayout":
        return SubsystemLayout(
            tuple(self.dims[i] for i in keep), tuple(self.labels[i] for i in keep)
        )


def standard_layout(n1: int, n2: int) -> SubsystemLayout:
    """Layout of the full atom x field1 x field2 space at truncations (n1, n2)."""
    return SubsystemLayout((2, n1 + 1, n2 + 1), ("atom", "field1", "field2"))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive matrix with an explicit subsystem layout.

    Instances are treated as immutable; all operations return new objects.
    """

    layout: SubsystemLayout
    data: np.ndarray

    def __post_init__(self):
        d = self.layout.dim
        if self.data.shape != (d, d):
            raise ValueError("matrix shape does not match the layout dimension")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def purity(self) -> float:
        # Tr rho^2 = ||rho||_F^2 for Hermitian rho
        return float(np.vdot(self.data, self.data).real)

    def validate(self):
        """Check Hermiticity and unit trace, raising :class:`NonPhysicalState`."""
        # each guard is written so that NaN fails it
        herm = hermiticity_defect(self.data)
        if not herm <= HERMITICITY_TOL:
            raise NonPhysicalState(f"Hermiticity violation {herm:.3e}")
        tr = self.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise NonPhysicalState(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        return self


def hermiticity_defect(x: np.ndarray) -> float:
    """max |x - x^dag| of a square matrix (NaN if x holds a NaN).

    |x_ij - conj x_ji| is symmetric in (i, j), so only the block upper triangle
    is formed, 64 rows at a time; each entry is computed as in the plain
    expression, so the value is exactly its value.
    """
    blocks = (x[i : i + 64, i:] - x[i:, i : i + 64].conj().T for i in range(0, x.shape[0], 64))
    return float(np.max([np.max(np.abs(d)) for d in blocks]))


def coherent_vector(amplitude: complex, truncation: int) -> np.ndarray:
    """Fock amplitudes of a coherent state, renormalized after truncation."""
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    c = np.empty(truncation + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(amplitude) ** 2)
    for n in range(truncation):
        c[n + 1] = c[n] * amplitude / math.sqrt(n + 1)
    kept = float(np.sum(np.abs(c) ** 2))
    if 1.0 - kept > TAIL_TOL:
        raise TruncationTooSmall(
            f"tail mass {1.0 - kept:.3e} beyond n={truncation} exceeds {TAIL_TOL:.1e} "
            f"for |amplitude|={abs(amplitude):.4g}"
        )
    return c / math.sqrt(kept)


def coherent_overlap(a: complex, b: complex) -> complex:
    """Exact (untruncated) overlap ``<a|b>`` of two coherent states."""
    return complex(np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept subsystems (indices or labels, any order)."""
    if isinstance(keep, (int, str)):
        keep = (keep,)
    keep_idx = sorted(rho.layout.index(k) for k in keep)
    if not keep_idx:
        raise ValueError("keep must select at least one subsystem")
    if len(set(keep_idx)) != len(keep_idx):
        raise ValueError("duplicate subsystems in keep")
    reduced = partial_trace_stack(rho.data[None], rho.layout.dims, keep_idx)
    return DensityMatrix(rho.layout.subset(tuple(keep_idx)), reduced[0])


def partial_trace_stack(data: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Reduced states of a (S, D, D) stack of one layout over the sorted indices ``keep``.

    Each stack entry is traced exactly as a single state would be, so results do
    not depend on the stack size.
    """
    n = len(dims)
    t = data.reshape(data.shape[:1] + dims + dims)
    k = n
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax + 1, axis2=ax + 1 + k)
        k -= 1
    d = math.prod(dims[i] for i in keep)
    return t.reshape(data.shape[0], d, d)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    if rho.layout.dims != sigma.layout.dims:
        raise ValueError("states live on different layouts")
    return half_trace_norm(rho.data - sigma.data)


def half_trace_norm(delta: np.ndarray) -> float:
    """Half the trace norm of the Hermitian matrix delta: 0.5 * sum |eigenvalues|.

    NaN if delta holds a non-finite entry anywhere: the eigen-solve reads one
    triangle only and could miss it.
    """
    if not np.isfinite(delta).all():
        return math.nan
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


def certified_half_trace_norm(delta: np.ndarray, bound: float) -> float:
    """An upper bound on half_trace_norm(delta) that is below ``bound`` iff the exact value is.

    The rigorous estimate ``||X||_1 <= sqrt(dim) * ||X||_F`` is returned when it is
    below ``bound``; otherwise the exact eigenvalue sum is.  A NaN in delta gives
    NaN.
    """
    estimate = 0.5 * math.sqrt(delta.shape[0]) * float(np.linalg.norm(delta))
    if not estimate >= bound:  # below the bound, or NaN
        return estimate
    return half_trace_norm(delta)


def certified_min_eigenvalue(x: np.ndarray, bound: float) -> float:
    """A lower bound on the smallest eigenvalue of the Hermitian x that is >= ``bound``
    iff the exact value is.

    If the Cholesky factorization of fl(x + c I) completes, with
    c = CHOLESKY_SAFETY * (n + 2) * u * sum |x_ii|, then lambda_min(x) > -2c, and
    -2c is returned when it is at least ``bound``; otherwise (a failed
    factorization, or -2c below ``bound``) the exact eigenvalue is.  A completed
    factorization of A has LL* = A + E with |E| <= g |L||L*| (Higham, *Accuracy
    and Stability of Numerical Algorithms*, Thm 10.3; Rump, BIT 46, 433 (2006)),
    so lambda_min(A) >= -g (1 + g) sum |a_ii|.  In complex arithmetic a product
    errs by at most 2 sqrt(2) u and a sum by u (Higham, Lemma 3.5), so
    g <= (n + 2) u to first order; the factor 8 also covers the rounding of the
    shift, u (|x_ii| + c), and the n c that the shift adds to the trace.  NaN if
    x holds a non-finite entry (the eigen-solve and the factorization read one
    triangle only, and OpenBLAS completes a factorization through a NaN).
    """
    if not np.isfinite(x).all():
        return math.nan
    n = x.shape[0]
    shift = CHOLESKY_SAFETY * (n + 2) * UNIT_ROUNDOFF * float(np.sum(np.abs(x.diagonal())))
    if -2.0 * shift >= bound:
        shifted = x.copy()
        shifted.flat[:: n + 1] += shift
        try:
            np.linalg.cholesky(shifted)
            return -2.0 * shift
        except np.linalg.LinAlgError:
            pass  # x + c I is not numerically positive definite: solve exactly
    return float(np.linalg.eigvalsh(x)[0])


def trace_distance_below(rho: DensityMatrix, sigma: DensityMatrix, bound: float) -> bool:
    """Certify trace_distance(rho, sigma) < bound, eigen-solving only when the
    Frobenius bound is inconclusive (:func:`certified_half_trace_norm`)."""
    if rho.layout.dims != sigma.layout.dims:
        raise ValueError("states live on different layouts")
    return certified_half_trace_norm(rho.data - sigma.data, bound) < bound


def photon_number_distribution(rho: DensityMatrix, field) -> np.ndarray:
    """Diagonal of the reduced field state; non-negative, sums to one."""
    idx = rho.layout.index(field)
    if rho.layout.labels[idx] == "atom":
        raise ValueError("requested subsystem is the atom, not a field mode")
    reduced = partial_trace(rho, (idx,))
    probs = np.real(np.diag(reduced.data)).copy()
    total = probs.sum()
    if not abs(total - 1.0) <= TRACE_TOL:
        raise NonPhysicalState(f"photon distribution sums to {total}")
    return probs


def mean_photon_number(rho: DensityMatrix, field) -> float:
    probs = photon_number_distribution(rho, field)
    return float(np.dot(probs, np.arange(probs.size)))
