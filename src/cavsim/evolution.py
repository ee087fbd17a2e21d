"""Piecewise evolution of a two-level atom crossing two lossy dispersive cavities
separated by a Ramsey zone.

The traversal is split into five consecutive stages

    cavity 1 -> free flight -> Ramsey zone -> free flight -> cavity 2

and within each stage the propagator factorizes exactly into a dissipative map
followed by the stage unitary.  The dissipative map acts independently on each
atomic dyad block ``|s><s'|``: a jump series ``exp(F J)`` with
``J rho = a rho a^dag`` followed by the diagonal damping factor
``exp(-gamma tau (n + m))``.  The block scalar is

    F = 2 gamma (1 - exp(-(2 gamma + i w lam) tau)) / (2 gamma + i w lam)

where ``w`` is the dispersive frequency active in the stage and ``lam`` is the
eigenvalue of ``sigma_z . - . sigma_z`` on the block (0 on diagonal dyads, +2 on
``|e><g|``, -2 on ``|g><e|``).  On the diagonal dyads F is real, so their
kernels are real and multiply the float view of the complex blocks.

Every pass of the dense stage map (the map's gathers, kernel products,
scatters and Hermitian fill, the dispersive phases and the Ramsey rotation)
runs in two disjoint halves: one on the calling thread, one on the module's
single worker thread (made afresh in a forked child).  numpy releases the GIL
inside these operations, and the halves make the very numpy and BLAS calls
one thread would, so the results are bit-identical to a serial run.  A pass
too small to repay the hand-over runs both halves on the calling thread.

Two equivalent backends are provided: a dense matrix backend
(:func:`run_scenario`) and an exact coherent-branch backend
(:func:`branch_run`).  The branch backend keeps the which-path frame of
Davidovich et al., PRL 71, 2360 (1993): inside a cavity the field's coherent
label is fixed by the atom's state, so a snapshot is one weight array plus
two labels per field (:class:`BranchState`).  Its records never densify: each
snapshot is compressed onto the orthonormalized span of its labels
(:func:`branch_compress`), so the Fock cutoffs N1/N2 only affect
:meth:`Trajectory.dense_state`.  Densify and compress share one product
(:func:`_compress_stack`), in Fock or in label-isometry coordinates.

Both backends run through one closed-form driver (:func:`_closed_form_run`):
it steps each distinct sample time once from its stage-start state and dresses
each lab snapshot as it is made.  It and :func:`cavsim.lindblad.run_oracle`
walk a scenario's stages through one lazy rotating-frame traversal
(:func:`_traverse`), supplying a per-stage advance and an atomic rotation; all
three take (scenario, sample times, initial).  A closed-form
:class:`Trajectory` makes its snapshots when they are read, so its records
hold one dense snapshot at a time.

Units: time in microseconds, angular frequencies in rad/us.  The conventional
"kHz" experimental values map to 1e-3 rad/us.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import math
import os
import warnings
from concurrent import futures
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import entanglement
from .exceptions import ConfigError, NonPhysicalState, UnsupportedInitialState
from .hilbert import (
    EXCITED,
    GROUND,
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    SubsystemLayout,
    coherent_overlap,
    coherent_vector,
    hermiticity_defect,
    standard_layout,
)


class StageKind(Enum):
    CAVITY1 = 0
    FREE1 = 1
    RAMSEY = 2
    FREE2 = 3
    CAVITY2 = 4


STAGE_ORDER = tuple(StageKind)


def default_truncation(amplitude: complex) -> int:
    """Fock cutoff covering the Poisson tail of a coherent state, ceil(|a|^2+8|a|+6)."""
    a = abs(amplitude)
    return int(math.ceil(a * a + 8.0 * a + 6.0))


@dataclass(frozen=True)
class Scenario:
    """Full physical parameter set of one traversal.

    Angular frequencies are in rad/us, rates in 1/us, durations in us.  The
    five stage durations cover cavity 1, free flight, Ramsey zone, free
    flight and cavity 2, in that order.  ``ramsey_angle`` is the total pulse
    area of the Ramsey rotation accumulated over the whole Ramsey stage.
    """

    omega_a: float = 5.11e4
    omega_1: float = 6.25e-3
    omega_2: float = 6.25e-3
    Omega_1: float | None = 0.025
    Omega_2: float | None = 0.025
    Delta_1: float | None = 0.1
    Delta_2: float | None = 0.1
    gamma_1: float = 0.0
    gamma_2: float = 0.0
    ramsey_angle: float = math.pi / 4
    phi: float = 0.0
    alpha: complex = 0.5
    beta: complex = 0.5
    stage_durations: tuple[float, ...] = (30.0, 10.0, 10.0, 10.0, 30.0)
    n1: int | None = None
    n2: int | None = None
    frame: str = "rotating"

    def validate(self) -> "Scenario":
        for name, value in vars(self).items():
            if not isinstance(value, (str, type(None))) and not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite", key=name)
        if self.gamma_1 < 0 or self.gamma_2 < 0:
            raise ConfigError("decay rates must be non-negative", key="gamma")
        if len(self.stage_durations) != 5:
            raise ConfigError("exactly five stage durations required", key="durations")
        if any(d < 0 for d in self.stage_durations):
            raise ConfigError("stage durations must be non-negative", key="durations")
        if self.frame not in ("rotating", "lab"):
            raise ConfigError(f"unknown frame '{self.frame}'", key="frame")
        for i in (1, 2):
            omega = getattr(self, f"omega_{i}")
            big_omega = getattr(self, f"Omega_{i}")
            delta = getattr(self, f"Delta_{i}")
            if big_omega is not None and delta is not None:
                if delta == 0:
                    raise ConfigError("detuning must be nonzero", key=f"Delta_{i}")
                derived = big_omega**2 / delta
                if abs(omega - derived) > 1e-9 * max(abs(omega), abs(derived), 1e-30):
                    raise ConfigError(
                        f"omega_{i}={omega} inconsistent with Omega_{i}^2/Delta_{i}={derived}",
                        key=f"omega_{i}",
                    )
        for name in ("n1", "n2"):
            n = getattr(self, name)
            if n is None:
                continue
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ConfigError(f"truncation must be an integer, not {n!r}", key=name)
            if n < 1:
                raise ConfigError("truncation must be at least 1", key=name)
        return self

    def stage_times(self) -> np.ndarray:
        """The six stage boundaries t0..t5 with t0 = 0."""
        return np.concatenate([[0.0], np.cumsum(self.stage_durations)])

    def total_time(self) -> float:
        return float(sum(self.stage_durations))

    def truncations(self) -> tuple[int, int]:
        n1 = self.n1 if self.n1 is not None else default_truncation(self.alpha)
        n2 = self.n2 if self.n2 is not None else default_truncation(self.beta)
        return n1, n2

    def omega_tilde(self, i: int) -> float:
        """Cavity i's frequency omega_a - Delta_i (omega_a without a detuning)."""
        delta = getattr(self, f"Delta_{i}")
        return self.omega_a - (delta if delta is not None else 0.0)

    def omega_active(self, stage: StageKind) -> tuple[float, float]:
        """Dispersive frequencies (field 1, field 2) active in the given stage."""
        if stage is StageKind.CAVITY1:
            return self.omega_1, 0.0
        if stage is StageKind.CAVITY2:
            return 0.0, self.omega_2
        return 0.0, 0.0

    def variant(self, g: float | None = None, q: float | None = None, **changes) -> "Scenario":
        """Copy with updated fields; g and q set the decay rates as g*omega_1, q*omega_2."""
        if g is not None:
            changes["gamma_1"] = g * self.omega_1
        if q is not None:
            changes["gamma_2"] = q * self.omega_2
        return dataclasses.replace(self, **changes)


VALIDITY_THRESHOLD = 2.0  # smallest |Delta| / (Omega sqrt(nbar + 1)) without a warning


@dataclass(frozen=True)
class ValidityReport:
    ratios: tuple[float, float]
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.messages


def dispersive_validity(scenario: Scenario) -> ValidityReport:
    """Check |Delta| >> Omega sqrt(nbar + 1) for both cavities.

    Emits a UserWarning (never an error) for each cavity whose ratio
    ``|Delta| / (Omega sqrt(nbar + 1))`` falls below ``VALIDITY_THRESHOLD``.
    """
    ratios = []
    messages = []
    for i, amp in ((1, scenario.alpha), (2, scenario.beta)):
        big_omega = getattr(scenario, f"Omega_{i}")
        delta = getattr(scenario, f"Delta_{i}")
        if not big_omega:
            ratios.append(math.inf)
            continue
        if delta is None:
            raise ConfigError("detuning required for the validity check", key=f"Delta_{i}")
        r = abs(delta) / (abs(big_omega) * math.sqrt(abs(amp) ** 2 + 1.0))
        ratios.append(r)
        if r < VALIDITY_THRESHOLD:
            msg = (
                f"cavity {i}: |Delta|/(Omega sqrt(nbar+1)) = {r:.3g} < {VALIDITY_THRESHOLD:.3g}; "
                "the dispersive description is marginal"
            )
            messages.append(msg)
            warnings.warn(msg)
    return ValidityReport(tuple(ratios), tuple(messages))


# ---------------------------------------------------------------------------
# stage operators
# ---------------------------------------------------------------------------


def ramsey_unitary(theta: float) -> np.ndarray:
    """Atomic rotation exp(-i theta sigma_x) of total pulse area theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _phase_powers(scalar: complex, count: int) -> np.ndarray:
    # powers scalar**n built by cumulative product so that the dense backend and
    # the coherent-label recurrences agree to the last bit
    v = np.empty(count, dtype=complex)
    v[0] = 1.0
    if count > 1:
        np.cumprod(np.full(count - 1, scalar, dtype=complex), out=v[1:])
    return v


def _dispersive_phases(omega: float, tau: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Dispersive phases on |e,n> and on |g,n> for n < d.

    Phase exp(-i omega tau (n+1)) on |e,n> and exp(+i omega tau n) on |g,n>.
    """
    powers = _phase_powers(np.exp(-1j * omega * tau), d + 1)
    return powers[1:], powers[:d].conj()


def _f_coefficient(gamma: float, omega_lam: float, tau: float) -> complex:
    """Jump-series scalar F for one field on one atomic dyad block."""
    if gamma == 0.0 or tau == 0.0:
        return 0.0j
    z = (2.0 * gamma + 1j * omega_lam) * tau
    if abs(z) < 1e-6:
        return 2.0 * gamma * tau * (1.0 - z / 2.0 + z * z / 6.0)
    return 2.0 * gamma * tau * (1.0 - np.exp(-z)) / z


@functools.lru_cache(maxsize=64)
def _sqrt_binomials(d: int) -> np.ndarray:
    """Read-only table sqrt(C(c, n)) at [n, c] for n <= c < d, zero below the diagonal."""
    # sb[k, n] = sqrt(C(n+k, k)) for n = 0 .. d-1-k, by a running product
    sb = np.zeros((d, d))
    sb[0] = 1.0
    for k in range(1, d):
        ns = np.arange(d - k)
        sb[k, : d - k] = sb[k - 1, : d - k] * np.sqrt((ns + k) / k)
    rows, cols = np.triu_indices(d)
    table = np.zeros((d, d))
    table[rows, cols] = sb[cols - rows, rows]
    table.flags.writeable = False
    return table


def _field_kernels(gamma: float, omega_k: float, lam: int, tau: float, d: int):
    """Per-offset triangular kernels of one field's dissipative factor.

    The factor couples Fock entry (n, m) only to (n+k, m+k), so it is block
    diagonal in the offset o = n - m.  kernels[o][j, j+k] carries
    F^k sqrt(C(n+k,k) C(m+k,k)) for (n, m) = (j+o, j), with the damping factor
    e^{-gamma tau (n+m)} folded into the rows; the same kernel serves offset
    -o because the coefficient is symmetric in (n, m).  With c = j+k the two
    roots are sqrt(C(c+o, j+o)) and sqrt(C(c, j)), so every kernel is a view
    of one (d, d, d) product of the shared table.  On the diagonal dyads
    (lam = 0) F is real, and so are the kernels: they are float64 there.
    """
    f = _f_coefficient(gamma, omega_k * lam, tau)
    damp = np.exp(-gamma * tau * np.arange(d)) if gamma > 0 and tau > 0 else np.ones(d)
    # root[n, c] = sqrt(C(c, n)) e^{-gamma tau n}, zero-padded to fit every window below
    root = np.zeros((2 * d, 2 * d))
    root[:d, :d] = _sqrt_binomials(d) * damp[:, None]
    fpow = np.full(d, f.real if lam == 0 else f)
    fpow[0] = 1.0
    np.cumprod(fpow, out=fpow)
    ks = np.arange(d)
    # head[j, c] = F^(c-j) sqrt(C(c, j)) e^{-gamma tau j}, zero below the diagonal
    head = root[:d, :d] * fpow[np.abs(ks[None, :] - ks[:, None])]
    # windows[o] = root[o:o+d, o:o+d]: zero wherever c + o >= d, outside kernel o
    s0, s1 = root.strides
    windows = np.lib.stride_tricks.as_strided(
        root, (d, d, d), (s0 + s1, s0, s1), writeable=False
    )
    kernels = head * windows
    return [kernels[o, : d - o, : d - o] for o in range(d)]


# entries below which a pass runs both halves on the calling thread: a hand-over
# costs about 0.07 ms, and on two cores the passes broke even at 5e4 to 1.5e5 entries
HALVES_MIN_SIZE = 1 << 17


def _renew_halves_pool() -> None:
    """Make the one worker thread that runs the second half of every pass."""
    global _HALVES
    _HALVES = futures.ThreadPoolExecutor(1, thread_name_prefix="cavsim-halves")


_renew_halves_pool()
# a forked child inherits the executor but not its thread, so it makes its own
os.register_at_fork(after_in_child=_renew_halves_pool)


def _in_halves(size: int, fn, first, second) -> tuple:
    """fn(*first) on the calling thread while the worker runs fn(*second); both results.

    Returns ``(fn(*first), fn(*second))`` when both are done: the worker's half
    is waited for also when the caller's half raises.  The two halves write
    disjoint parts of their outputs, if any, and make the calls that the serial
    pair makes, so the results are exactly those of the serial pair, which is
    what runs for a pass of fewer than ``HALVES_MIN_SIZE`` entries (``size``),
    where the hand-over would cost more than the half it moves.
    """
    if size < HALVES_MIN_SIZE:
        return fn(*first), fn(*second)
    future = _HALVES.submit(fn, *second)
    try:
        result = fn(*first)
    finally:
        futures.wait((future,))
    return result, future.result()


def _split_rows(fn, *arrays) -> None:
    """fn(*arrays) as two calls, one per half of the arrays' first axis (:func:`_in_halves`)."""
    cut = len(arrays[0]) // 2
    _in_halves(arrays[0].size, fn, [a[:cut] for a in arrays], [a[cut:] for a in arrays])


def _kernel_products(kernels, src: np.ndarray, out: np.ndarray, upper: bool) -> None:
    # the offset-o diagonals (n, m) = (j+o, j), o >= 0, or (j, j+o), o >= 1
    d = len(kernels)
    for o in range(1 if upper else 0, d):
        start = o if upper else o * d
        rows = slice(start, start + (d - o - 1) * (d + 1) + 1, d + 1)
        np.matmul(kernels[o], src[rows], out=out[rows])


def _apply_field_kernels(src: np.ndarray, kernels, out: np.ndarray) -> None:
    """Apply one field's per-offset kernels to ``src`` laid out as (n, m, rest), into ``out``.

    Flattened to (n m, rest), the offset-o diagonal (n, m) = (j+o, j) is the row
    slice o d :: d+1 and (j, j+o) is o :: d+1, so each kernel multiplies a
    strided row view with contiguous rest entries and writes its rows of ``out``.
    Real kernels multiply the float view, real and imaginary parts alike.  The
    diagonals with n >= m and those with n < m are the two halves, of equal
    cost but for the main diagonal's.
    """
    d, size = src.shape[0], src.size
    src, out = src.reshape(d * d, -1), out.reshape(d * d, -1)
    if kernels[0].dtype == float:
        src, out = src.view(float), out.view(float)
    _in_halves(size, _kernel_products, (kernels, src, out, False), (kernels, src, out, True))


def dissipative_map(
    rho: DensityMatrix, stage: StageKind, tau: float, scenario: Scenario
) -> DensityMatrix:
    """Exact dissipative factor of the stage propagator (jump series, then damping).

    A field without loss (or a zero step) has the identity kernel and is skipped.
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, not {tau!r}")
    d1, d2 = rho.layout.dims[1], rho.layout.dims[2]
    w1k, w2k = scenario.omega_active(stage)
    fields = ((scenario.gamma_1, w1k, d1), (scenario.gamma_2, w2k, d2))
    # kernels[lam] per field, None for the identity kernel (no loss, or tau = 0)
    kernels = {
        lam: [_field_kernels(gamma, w, lam, tau, d) if gamma > 0 and tau > 0 else None
              for gamma, w, d in fields]
        for lam in (0, 2)
    }
    r = rho.data.reshape(2, d1, d2, 2, d1, d2)
    out = np.empty(r.shape, dtype=complex)
    # two work buffers of one dyad block, shared by every block and both fields:
    # a field's input is gathered into ``src`` and its kernels write ``dst``
    src, dst = np.empty(2 * (d1 * d2) ** 2, dtype=complex).reshape(2, -1)
    for s, sp in ((EXCITED, EXCITED), (GROUND, GROUND), (EXCITED, GROUND)):
        k1, k2 = kernels[2 * (sp - s)]
        # b is laid out (n1, n2, m1, m2); field 1 acts on (n1, m1), then field 2 on (n2, m2)
        b = r[s, :, :, sp, :, :]
        if k1 is not None:
            _split_rows(np.copyto, src.reshape(d1, d1, d2, d2), b.transpose(0, 2, 1, 3))
            _apply_field_kernels(src.reshape(d1, d1, d2 * d2), k1, dst)
            b = dst.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3)
        if k2 is not None:
            _split_rows(np.copyto, src.reshape(d2, d2, d1, d1), b.transpose(1, 3, 0, 2))
            _apply_field_kernels(src.reshape(d2, d2, d1 * d1), k2, dst)
            b = dst.reshape(d2, d2, d1, d1).transpose(2, 0, 3, 1)
        _split_rows(np.copyto, out[s, :, :, sp, :, :], b)
    # the (g, e) block is fixed by Hermiticity of the input; together with the
    # real diagonal-dyad kernels this preserves Hermiticity by construction
    eg = out[EXCITED, :, :, GROUND, :, :]
    _split_rows(np.conjugate, eg.transpose(2, 3, 0, 1), out[GROUND, :, :, EXCITED, :, :])
    data = out.reshape(rho.dim, rho.dim)
    tr = complex(np.trace(data))
    if not abs(tr - 1.0) <= TRACE_TOL:  # NaN fails too
        raise NonPhysicalState(f"dissipative map broke the trace by {abs(tr - 1.0):.3e}")
    return DensityMatrix(rho.layout, data)


def _free_phases(scenario: Scenario, t: float):
    """Free phases at elapsed time t: ((|e>, |g>) phases, field-1 and field-2 label factors)."""
    atom = (np.exp(-0.5j * scenario.omega_a * t), np.exp(0.5j * scenario.omega_a * t))
    return atom, np.exp(-1j * scenario.omega_tilde(1) * t), np.exp(-1j * scenario.omega_tilde(2) * t)


def _dress(rho: DensityMatrix, scenario: Scenario, t: float) -> DensityMatrix:
    """Free-Hamiltonian phases at elapsed time t on a rotating-frame DensityMatrix."""
    atom, q1, q2 = _free_phases(scenario, t)
    f1 = _phase_powers(q1, rho.layout.dims[1])
    f2 = _phase_powers(q2, rho.layout.dims[2])
    ph = (np.array(atom)[:, None, None] * f1[None, :, None] * f2[None, None, :]).reshape(-1)
    data = rho.data * ph[:, None]
    data *= ph.conj()[None, :]
    return DensityMatrix(rho.layout, data)


def _rotate_atom(rho: DensityMatrix, theta: float) -> DensityMatrix:
    """Conjugate the atom of rho by the Ramsey rotation of pulse area theta."""
    r2, rest = ramsey_unitary(theta), rho.layout.dims[1] * rho.layout.dims[2]
    # R on the row atom index is one product; R* on the column atom index is a
    # batch of 2 x 2 products, one per (row, field column).  Each runs in two
    # halves: the batch split by rows, the product by columns at a multiple of
    # 64, where (unlike at an odd cut) the halves equal the unsplit product
    flat = rho.data.reshape(2, -1)
    left, data = np.empty(flat.shape, dtype=complex), np.empty((rho.dim, rho.dim), dtype=complex)
    cut = flat.shape[1] // 128 * 64
    batch, rotated = left.reshape(2 * rest, 2, rest), data.reshape(2 * rest, 2, rest)
    halves = [(r2, flat[:, cols], left[:, cols]) for cols in (slice(cut), slice(cut, None))]
    _in_halves(flat.size, np.matmul, *halves)
    _split_rows(functools.partial(np.matmul, r2.conj()), batch, rotated)
    return DensityMatrix(rho.layout, data)


def _ramsey_area(scenario: Scenario, tau: float) -> float:
    """Pulse area accumulated after tau inside a Ramsey stage of nonzero duration."""
    duration = scenario.stage_durations[2]
    return scenario.ramsey_angle * (tau / duration) if duration > 0 else 0.0


PHASE_ROWS = 32  # rows per block of the dispersive phases, small enough to stay in cache


def _phase_rows(data: np.ndarray, ph: np.ndarray, phc: np.ndarray) -> None:
    # row and column phases per block of rows, in one pass over the rows
    for i in range(0, len(ph), PHASE_ROWS):
        block = data[i : i + PHASE_ROWS]
        block *= ph[i : i + PHASE_ROWS, None]
        block *= phc


def stage_step(
    rho: DensityMatrix, stage: StageKind, tau: float, scenario: Scenario
) -> DensityMatrix:
    """Advance rho by tau within one stage: dissipative map, then the stage unitary.

    This is a rotating-frame map: ``scenario.frame`` is not read.
    """
    out = dissipative_map(rho, stage, tau, scenario)
    data, dims = out.data, rho.layout.dims
    for axis, omega in enumerate(scenario.omega_active(stage), start=1):
        if tau > 0 and omega != 0:
            # rows EXCITED = 0, GROUND = 1, broadcast over the other field
            shape = [2, 1, 1]
            shape[axis] = dims[axis]
            ph = np.stack(_dispersive_phases(omega, tau, dims[axis])).reshape(shape)
            ph = np.broadcast_to(ph, dims).reshape(-1)
            phc = ph.conj()
            # two halves of whole row blocks
            cut = PHASE_ROWS * -(-len(ph) // (2 * PHASE_ROWS))
            halves = [(data[rows], ph[rows], phc) for rows in (slice(cut), slice(cut, None))]
            _in_halves(data.size, _phase_rows, *halves)
    if stage is StageKind.RAMSEY and (theta := _ramsey_area(scenario, tau)):
        return _rotate_atom(out, theta)
    return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def initial_density(scenario: Scenario) -> DensityMatrix:
    """(|e> + e^{-i phi/2}|g>)/sqrt(2) tensor |alpha> tensor |beta>, truncated."""
    n1, n2 = scenario.truncations()
    atom = np.array([1.0, np.exp(-0.5j * scenario.phi)]) / math.sqrt(2.0)
    c1 = coherent_vector(scenario.alpha, n1)
    c2 = coherent_vector(scenario.beta, n2)
    vec = np.kron(atom, np.kron(c1, c2))
    return DensityMatrix(standard_layout(n1, n2), np.outer(vec, vec.conj()))


@dataclass(frozen=True)
class ConcurrenceRecord:
    t_us: float
    c_af1: float
    c_af2: float
    c_f1f2: float
    discarded_weight: float
    purity: float
    flags: str = ""


def _stack_records(times, layout: SubsystemLayout, stack: np.ndarray) -> list[ConcurrenceRecord]:
    """Concurrence records of a ``(S, D, D)`` stack of one layout sampled at ``times``."""
    pcs = entanglement.pairwise_concurrence_stack(stack, layout.dims)
    return [
        ConcurrenceRecord(
            t_us=float(t),
            c_af1=pc.c_af1,
            c_af2=pc.c_af2,
            c_f1f2=pc.c_f1f2,
            discarded_weight=pc.discarded_weight,
            purity=DensityMatrix(layout, data).purity(),
            flags=";".join(pc.flags),
        )
        for t, pc, data in zip(times, pcs, stack)
    ]


def _dense_record(t: float, rho: DensityMatrix) -> ConcurrenceRecord:
    """Record of one dense snapshot at time t, exactly as :meth:`Trajectory.records` makes it."""
    return _stack_records([t], rho.layout, rho.data[None])[0]


class Trajectory:
    """Time grid plus state snapshots (dense matrices or coherent-branch states).

    ``walk()`` returns a fresh iterator over the snapshots, which makes them as
    they are read.  ``states`` walks once on first access and keeps the list;
    the other readers reuse that list if it exists and otherwise walk afresh,
    keeping no snapshot the caller does not keep.
    """

    def __init__(self, scenario: Scenario, times: np.ndarray, walk):
        self.scenario, self.times, self._walk = scenario, times, walk

    @functools.cached_property
    def states(self) -> list:
        return list(self._walk())

    def snapshots(self):
        """Iterator over the snapshots: the ``states`` list if it was read, else a fresh walk."""
        return iter(self.states) if "states" in self.__dict__ else self._walk()

    def dense_state(self, i: int) -> DensityMatrix:
        """Snapshot i in Fock space; branch states are densified at the scenario cutoffs."""
        st = next(itertools.islice(self.snapshots(), range(self.times.size)[i], None))
        if isinstance(st, BranchState):
            return branch_densify(st, self.scenario)
        return st

    def records(self) -> list[ConcurrenceRecord]:
        """Concurrence record of every snapshot.

        A trajectory holds snapshots of one backend.  Dense snapshots are
        extracted one at a time as stack-of-one views, never stacked or copied,
        and dropped before the next is made.  Branch snapshots are compressed
        together as one ``(S, 8, 8)`` stack (see :func:`branch_compress`).
        """
        recs, branch = [], []
        snapshots = self.snapshots()
        for t in self.times:
            st = next(snapshots)
            if isinstance(st, BranchState):
                branch.append(st)
            else:
                recs.append(_dense_record(t, st))
            del st  # not kept while the walk makes the next snapshot
        return _stack_records(self.times, *_compressed(branch)) if branch else recs


def _traverse(scenario: Scenario, sample_times, state, advance, rotate):
    """Check a sample grid and return (sample times, walk), where ``walk()`` walks
    the scenario's five stages from ``state`` and yields the snapshot at each
    sample time as it is made.

    The sample times must be non-empty, finite, sorted and inside the
    scenario's span; a sample on a stage boundary belongs to the earlier stage.
    For each stage, ``advance(state, stage, taus)`` receives the stage-start
    state and the elapsed times of the stage's samples followed by the stage
    duration, and returns an iterable of one state per entry; the last one
    starts the next stage.  After its samples, a zero-duration Ramsey stage
    applies the full pulse area at once through
    ``rotate(state, scenario.ramsey_angle)``.  The walk stops at the last
    sample: its stage receives only the samples' elapsed times, and no later
    stage is advanced or rotated.  A walk keeps no snapshot once it has yielded
    it, apart from what ``advance`` keeps.
    """
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if times.size == 0:
        raise ValueError("sample grid is empty")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be sorted")
    bounds = scenario.stage_times()
    if times[0] < -1e-12 or times[-1] > bounds[-1] + 1e-9:
        raise ValueError("sample times outside the scenario time span")
    # each sample belongs to the earliest stage whose interval contains it
    stage_of = np.minimum(np.searchsorted(bounds[1:], times, side="left"), len(STAGE_ORDER) - 1)

    def walk():
        start = state
        for k, (stage, duration) in enumerate(zip(STAGE_ORDER, scenario.stage_durations)):
            taus = times[stage_of == k] - bounds[k]
            if k == stage_of[-1]:  # the walk ends at the last sample
                yield from advance(start, stage, taus)
                return
            stepped = iter(advance(start, stage, np.append(taus, duration)))
            yield from itertools.islice(stepped, taus.size)
            start = next(stepped)
            if duration == 0 and stage is StageKind.RAMSEY and scenario.ramsey_angle != 0.0:
                start = rotate(start, scenario.ramsey_angle)

    return times, walk


def _closed_form_run(scenario: Scenario, sample_times, state, step, rotate, dress) -> Trajectory:
    """The one driver of the closed-form backends (dense and coherent-branch).

    Each sample is ``step(state, stage, tau, scenario)`` from its stage-start
    state, made once per distinct elapsed time tau > 0 (compared as exact
    floats): samples at equal times share one state, and a sample on a stage's
    end is the very state that starts the next stage (so no snapshot may be
    modified in place).  A stage keeps only its start state and its latest
    sample, which it drops before making the next.  A zero-duration Ramsey
    stage is ``rotate(state, ramsey_angle)`` (see :func:`_traverse`).  In lab
    mode the traversal runs in the rotating frame and each snapshot at t > 0 is
    ``dress(state, scenario, t)``, the free phases accumulated since t0:
    referencing the Ramsey drive phase to t0 keeps the two frames related by a
    local unitary (dressing stage by stage would tilt the pulse axis by the
    atomic phase accumulated before the Ramsey zone, which no measured quantity
    here can resolve).  Snapshots are made when the trajectory is read.
    """

    def advance(st, stage, taus):
        # taus are sorted, so samples at one elapsed time are neighbours
        last_tau, sample = None, st
        for tau in map(float, taus):
            if tau > 0 and tau != last_tau:
                sample = None  # not kept while the next sample is made
                sample, last_tau = step(st, stage, tau, scenario), tau
            yield sample

    times, rotating = _traverse(scenario, sample_times, state, advance, rotate)
    if scenario.frame == "rotating":
        return Trajectory(scenario, times, rotating)

    def dressed():
        snapshots = rotating()
        for t in map(float, times):
            st = next(snapshots)
            yield dress(st, scenario, t) if t > 0 else st
            del st  # not kept while the walk makes the next snapshot

    return Trajectory(scenario, times, dressed)


def _density_start(scenario: Scenario, initial) -> DensityMatrix:
    """The start state of a density-matrix runner: the scenario's if ``initial`` is None,
    else ``initial``, which must be a valid DensityMatrix of layout (2, d1, d2)."""
    if initial is None:
        return initial_density(scenario)
    dims = initial.layout.dims if isinstance(initial, DensityMatrix) else ()
    if len(dims) != 3 or dims[0] != 2:
        raise UnsupportedInitialState("initial must be a DensityMatrix of layout (2, d1, d2)")
    return initial.validate()


def run_scenario(scenario: Scenario, sample_times, initial: DensityMatrix | None = None) -> Trajectory:
    """Dense-backend traversal from ``initial`` (None: :func:`initial_density`).

    Sampling, the zero-duration Ramsey kick and lab dressing: :func:`_closed_form_run`.
    """
    scenario.validate()
    state = _density_start(scenario, initial)
    return _closed_form_run(scenario, sample_times, state, stage_step, _rotate_atom, _dress)


# ---------------------------------------------------------------------------
# coherent-branch backend
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BranchState:
    """Exact state in the which-path frame of the traversal.

    ``weights[a, p, b, pp]`` weighs
    ``|a><b| (x) |l1[p]><l1[pp]| (x) |l2[a]><l2[b]|`` with ``l1, l2 =
    labels1, labels2``, normalized coherent labels indexed by atomic state.  p
    and pp are the atom's states inside cavity 1; field 2 is indexed by the
    atom's state itself because the Ramsey zone comes before cavity 2.  The
    two labels of a field stay equal until the atom enters that field's
    cavity, and before the Ramsey zone only p = a, pp = b is weighted.
    """

    weights: np.ndarray
    labels1: tuple
    labels2: tuple

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        if self.weights.shape != (2, 2, 2, 2):
            raise ValueError(f"weights must have shape (2, 2, 2, 2), not {self.weights.shape}")
        for labels in (self.labels1, self.labels2):
            if not isinstance(labels, tuple) or len(labels) != 2:
                raise ValueError(f"labels must be a pair per field, not {labels!r}")
        labels = self.labels1 + self.labels2
        if not (np.isfinite(self.weights).all() and all(map(cmath.isfinite, labels))):
            raise ValueError("weights and labels must be finite")

    def validate(self):
        """Check Hermiticity and unit trace of the weights, raising :class:`NonPhysicalState`.

        Not run on construction: every :func:`branch_step` makes a BranchState.
        """
        # as in DensityMatrix.validate, each guard is written so that NaN fails it
        herm = hermiticity_defect(self.weights.reshape(4, 4))  # rows (a, p), columns (b, pp)
        if not herm <= HERMITICITY_TOL:
            raise NonPhysicalState(f"Hermiticity violation {herm:.3e} of the weights")
        l1 = self.labels1
        tr = sum(self.weights[a, p, a, pp] * coherent_overlap(l1[pp], l1[p])
                 for a, p, pp in itertools.product((0, 1), repeat=3))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise NonPhysicalState(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        return self

    @staticmethod
    def from_scenario(scenario: Scenario) -> "BranchState":
        amps = (1.0 / math.sqrt(2.0), np.exp(-0.5j * scenario.phi) / math.sqrt(2.0))
        weights = np.zeros((2, 2, 2, 2), dtype=complex)
        for a, b in itertools.product((EXCITED, GROUND), repeat=2):
            weights[a, a, b, b] = amps[a] * np.conj(amps[b])
        return BranchState(weights, (scenario.alpha,) * 2, (scenario.beta,) * 2)


# The weight and label updates below are scalar on purpose: numpy's array complex
# product may round differently from the scalar one (fused multiply-adds), and
# the CSV bytes follow this exact operation order.


def _branch_rotate(bs: BranchState, theta: float) -> BranchState:
    """Conjugate the atom of a BranchState by the Ramsey rotation of pulse area theta.

    Only the atom index moves: the frame needs field 2's labels still equal,
    as they are in the Ramsey zone.
    """
    r = ramsey_unitary(theta)
    weights = np.zeros_like(bs.weights)
    for (s, p, sp, pp), w in np.ndenumerate(bs.weights):
        if w:
            for a, b in itertools.product((0, 1), repeat=2):
                weights[a, p, b, pp] += w * r[a, s] * np.conj(r[b, sp])
    return BranchState(weights, bs.labels1, bs.labels2)


def _branch_labels(labels: tuple, dec: float, omega: float, phase: complex) -> tuple:
    """One field's labels after a step: the loss contraction, then the dispersive phase."""
    labels = [lab * dec for lab in labels]
    if omega != 0.0:
        labels[EXCITED] = labels[EXCITED] * phase
        labels[GROUND] = labels[GROUND] * np.conj(phase)
    return tuple(labels)


def branch_step(bs: BranchState, stage: StageKind, tau: float, scenario: Scenario) -> BranchState:
    """Advance a BranchState by tau within one stage (exact label/weight algebra).

    This is a rotating-frame map: ``scenario.frame`` is not read.
    """
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, not {tau!r}")
    sc = scenario
    w1k, w2k = sc.omega_active(stage)
    dec1, dec2 = math.exp(-sc.gamma_1 * tau), math.exp(-sc.gamma_2 * tau)
    shrink1, shrink2 = 0.5 * (dec1 * dec1 - 1.0), 0.5 * (dec2 * dec2 - 1.0)
    p1, p2 = np.exp(-1j * w1k * tau), np.exp(-1j * w2k * tau)
    # F of each field per eigenvalue lam = 2 (b - a) of the atomic dyad
    f = {lam: (_f_coefficient(sc.gamma_1, w1k * lam, tau), _f_coefficient(sc.gamma_2, w2k * lam, tau))
         for lam in (-2, 0, 2)}
    l1, l2 = bs.labels1, bs.labels2
    weights = np.zeros_like(bs.weights)
    for (a, p, b, pp), w in np.ndenumerate(bs.weights):
        if not w:
            continue
        f1, f2 = f[2 * (b - a)]
        u1, v1, u2, v2 = l1[p], l1[pp], l2[a], l2[b]
        w = w * np.exp(
            f1 * u1 * np.conj(v1)
            + (abs(u1) ** 2 + abs(v1) ** 2) * shrink1
            + f2 * u2 * np.conj(v2)
            + (abs(u2) ** 2 + abs(v2) ** 2) * shrink2
        )
        for omega, phase in ((w1k, p1), (w2k, p2)):
            if omega != 0.0:
                if a == EXCITED:
                    w = w * phase
                if b == EXCITED:
                    w = w * np.conj(phase)
        weights[a, p, b, pp] = w
    out = BranchState(weights, _branch_labels(l1, dec1, w1k, p1), _branch_labels(l2, dec2, w2k, p2))
    if stage is StageKind.RAMSEY and (theta := _ramsey_area(sc, tau)):
        return _branch_rotate(out, theta)
    return out


# (a, b, p, pp) of the 16 weights in row-major order: per atomic dyad, the
# four path pairs in the order the Ramsey rotation makes them
_ENTRIES = np.indices((2, 2, 2, 2)).reshape(4, -1)


def _compress_stack(weights, coords1, coords2) -> tuple[SubsystemLayout, np.ndarray]:
    """(layout, (S, D, D) stack) of S BranchStates with ``weights`` of shape (S, 2, 2, 2, 2).

    Block (a, b) of state s is the sum over the path pairs (p, pp) of
    ``weights[s, a, p, b, pp] |l1[p], l2[a]><l1[pp], l2[b]|``, one product per
    atomic dyad block.  Column j of ``coords1[s]`` (``coords2[s]``) holds the
    coordinates of field-1 (field-2) label j of state s: label isometries for
    records, Fock amplitudes for :func:`branch_densify`.
    """
    atom_u, atom_v, path_u, path_v = _ENTRIES
    count, r1, r2 = len(weights), coords1.shape[1], coords2.shape[1]
    w = weights.transpose(0, 1, 3, 2, 4).reshape(count, -1)

    def fields(idx1, idx2):
        # |lab1> (x) |lab2> in the given coordinates, (S, entries, r1 r2)
        c1 = coords1[:, :, idx1].transpose(0, 2, 1)
        c2 = coords2[:, :, idx2].transpose(0, 2, 1)
        return (c1[:, :, :, None] * c2[:, :, None, :]).reshape(count, len(idx1), -1)

    left, right = fields(path_u, atom_u), fields(path_v, atom_v)
    data = np.zeros((count, 2, r1 * r2, 2, r1 * r2), dtype=complex)
    for a, b in itertools.product((0, 1), repeat=2):
        ks = slice(8 * a + 4 * b, 8 * a + 4 * b + 4)
        block = (left[:, ks].transpose(0, 2, 1) * w[:, None, ks]) @ right[:, ks].conj()
        data[:, a, :, b, :] = block
    return standard_layout(r1 - 1, r2 - 1), data.reshape(count, 2 * r1 * r2, -1)


def branch_densify(bs: BranchState, scenario: Scenario) -> DensityMatrix:
    """Materialize a BranchState as a dense DensityMatrix at the scenario truncations."""
    coords = (
        np.stack([coherent_vector(lab, n) for lab in labels], axis=1)[None]
        for labels, n in zip((bs.labels1, bs.labels2), scenario.truncations())
    )
    layout, stack = _compress_stack(bs.weights[None], *coords)
    return DensityMatrix(layout, stack[0])


def _label_isometries(label_pairs: list) -> np.ndarray:
    """(S, 2, 2) coordinates of label pairs in orthonormal bases of their spans.

    Column p of entry s holds the coordinates of ``|label_pairs[s][p]>``: with
    the Gram matrix G = U diag(lam) U^dag of exact overlaps of the distinct
    labels, L = diag(lam)^1/2 U^dag satisfies L^dag L = G (no inverse).  Equal
    labels both map to the first basis vector: a rank-deficient 2 x 2 Gram
    matrix would leave about 1e-8 on the second.
    """
    iso = np.zeros((len(label_pairs), 2, 2), dtype=complex)
    single = np.array([u == v for u, v in label_pairs])
    for group, n in ((single, 1), (~single, 2)):
        labels = [pair[:n] for pair, member in zip(label_pairs, group) if member]
        if labels:
            lam, vecs = np.linalg.eigh([[[coherent_overlap(x, y) for y in ls] for x in ls] for ls in labels])
            roots = np.sqrt(np.clip(lam, 0.0, None))
            iso[group, :n, :n] = roots[:, :, None] * vecs.conj().transpose(0, 2, 1)
    iso[single, :, 1] = iso[single, :, 0]
    return iso


def _compressed(states) -> tuple[SubsystemLayout, np.ndarray]:
    """(layout, (S, 8, 8) stack) of BranchStates on their coherent-label bases."""
    weights = np.array([bs.weights for bs in states])
    isometries = (_label_isometries([bs.labels1 for bs in states]),
                  _label_isometries([bs.labels2 for bs in states]))
    return _compress_stack(weights, *isometries)


def branch_compress(bs: BranchState) -> DensityMatrix:
    """Exact small DensityMatrix of a BranchState on its coherent-label bases.

    Each field is represented on the orthonormalized span of its two labels
    (the second basis vector is unused while they coincide), giving the layout
    (2, 2, 2).  The result is the dense state conjugated by an isometry, so
    concurrences, effective-qubit reductions and purity equal those of the
    untruncated state.  It is the stack-of-one case of the trajectory-wide
    compression behind :meth:`Trajectory.records`.
    """
    layout, stack = _compressed([bs])
    return DensityMatrix(layout, stack[0])


def _branch_dress(bs: BranchState, scenario: Scenario, t: float) -> BranchState:
    """Free-phase dressing of a rotating-frame BranchState at elapsed time t."""
    atom, q1, q2 = _free_phases(scenario, t)
    weights = np.zeros_like(bs.weights)
    for (a, p, b, pp), w in np.ndenumerate(bs.weights):
        if w:
            weights[a, p, b, pp] = w * (atom[a] * np.conj(atom[b]))
    return BranchState(weights, tuple(lab * q1 for lab in bs.labels1),
                       tuple(lab * q2 for lab in bs.labels2))


def branch_run(scenario: Scenario, sample_times, initial: BranchState | None = None) -> Trajectory:
    """Coherent-branch traversal; snapshots stay sparse (see :func:`branch_compress`).

    Lab mode dresses the rotating-frame snapshots with the free phases
    accumulated since t0, as :func:`run_scenario` does (see :func:`_closed_form_run`).
    A given ``initial`` must pass :meth:`BranchState.validate`.
    """
    scenario.validate()
    if initial is not None and not isinstance(initial, BranchState):
        raise UnsupportedInitialState(
            "the branch backend evolves atomic superposition (x) coherent (x) coherent "
            "states only; pass a BranchState or use the dense backend"
        )
    state = initial.validate() if initial is not None else BranchState.from_scenario(scenario)
    return _closed_form_run(scenario, sample_times, state, branch_step, _branch_rotate, _branch_dress)
