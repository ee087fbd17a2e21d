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
``|e><g|``, -2 on ``|g><e|``).

Two equivalent backends are provided: a dense matrix backend
(:func:`run_scenario`) and an exact coherent-branch backend
(:func:`branch_run`).  Branch records never densify: each snapshot is
compressed onto the orthonormalized span of its coherent labels
(:func:`branch_compress`), so the Fock cutoffs N1/N2 only affect
:meth:`Trajectory.dense_state`.

Units: time in microseconds, angular frequencies in rad/us.  The conventional
"kHz" experimental values map to 1e-3 rad/us.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import entanglement
from .exceptions import ConfigError, NonPhysicalState, UnsupportedInitialState
from .hilbert import (
    EXCITED,
    GROUND,
    TRACE_TOL,
    DensityMatrix,
    PureState,
    SubsystemLayout,
    coherent_overlap,
    coherent_vector,
    standard_layout,
)


class StageKind(Enum):
    CAVITY1 = 0
    FREE1 = 1
    RAMSEY = 2
    FREE2 = 3
    CAVITY2 = 4


STAGE_ORDER = (
    StageKind.CAVITY1,
    StageKind.FREE1,
    StageKind.RAMSEY,
    StageKind.FREE2,
    StageKind.CAVITY2,
)


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
    omega_tilde_1: float | None = None
    omega_tilde_2: float | None = None
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
    tail_tol: float = 1e-10

    def validate(self) -> "Scenario":
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
            if n is not None and n < 1:
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
        stored = getattr(self, f"omega_tilde_{i}")
        if stored is not None:
            return stored
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


@dataclass(frozen=True)
class ValidityReport:
    ratios: tuple[float, float]
    threshold: float
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.messages


def dispersive_validity(scenario: Scenario, threshold: float = 2.0) -> ValidityReport:
    """Check |Delta| >> Omega sqrt(nbar + 1) for both cavities.

    Emits a UserWarning (never an error) for each cavity whose ratio
    ``|Delta| / (Omega sqrt(nbar + 1))`` falls below the threshold.
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
        if r < threshold:
            msg = (
                f"cavity {i}: |Delta|/(Omega sqrt(nbar+1)) = {r:.3g} < {threshold:.3g}; "
                "the dispersive description is marginal"
            )
            messages.append(msg)
            warnings.warn(msg)
    return ValidityReport(tuple(ratios), threshold, tuple(messages))


# ---------------------------------------------------------------------------
# stage operators
# ---------------------------------------------------------------------------


def dispersive_unitary(omega: float, tau: float, truncation: int) -> np.ndarray:
    """Diagonal unitary of one cavity crossing on atom x Fock(truncation).

    Phase exp(-i omega tau (n+1)) on |e,n> and exp(+i omega tau n) on |g,n>.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    d = truncation + 1
    p = np.exp(-1j * omega * tau)
    powers = _phase_powers(p, d + 1)
    return np.diag(np.concatenate([powers[1:], powers[:d].conj()]))


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


def _f_coefficient(gamma: float, omega_lam: float, tau: float) -> complex:
    """Jump-series scalar F for one field on one atomic dyad block."""
    if gamma == 0.0 or tau == 0.0:
        return 0.0j
    z = (2.0 * gamma + 1j * omega_lam) * tau
    if abs(z) < 1e-6:
        return 2.0 * gamma * tau * (1.0 - z / 2.0 + z * z / 6.0)
    return 2.0 * gamma * tau * (1.0 - np.exp(-z)) / z


def _field_kernels(gamma: float, omega_k: float, lam: int, tau: float, d: int):
    """Per-offset triangular kernels of one field's dissipative factor.

    The factor couples Fock entry (n, m) only to (n+k, m+k), so it is block
    diagonal in the offset o = n - m.  kernels[o][j, j+k] carries
    F^k sqrt(C(n+k,k) C(m+k,k)) for (n, m) = (j+o, j), with the damping factor
    e^{-gamma tau (n+m)} folded into the rows; the same kernel serves offset
    -o because the coefficient is symmetric in (n, m).
    """
    f = _f_coefficient(gamma, omega_k * lam, tau)
    damp = np.exp(-gamma * tau * np.arange(d)) if gamma > 0 and tau > 0 else np.ones(d)
    # sb[k][n] = sqrt(C(n+k, k)) for n = 0 .. d-1-k
    sb = [np.ones(d)]
    for k in range(1, d):
        ns = np.arange(d - k)
        sb.append(sb[k - 1][: d - k] * np.sqrt((ns + k) / k))
    fpow = np.empty(d, dtype=complex)
    fpow[0] = 1.0
    fpow[1:] = f
    np.cumprod(fpow, out=fpow)
    kernels = []
    for o in range(d):
        length = d - o
        kern = np.zeros((length, length), dtype=complex)
        for k in range(length):
            js = np.arange(length - k)
            kern[js, js + k] = fpow[k] * sb[k][js + o] * sb[k][js]
        kern *= (damp[o:] * damp[:length])[:, None]
        kernels.append(kern)
    return kernels


def _apply_field_kernels(block: np.ndarray, kernels, axis_pair) -> np.ndarray:
    """Apply one field's per-offset kernels along the given (row, col) axes."""
    a, b = axis_pair
    d = block.shape[a]
    out = np.empty_like(block)
    rest = [i for i in range(4) if i not in (a, b)]
    rest_shape = (block.shape[rest[0]], block.shape[rest[1]])
    flat = rest_shape[0] * rest_shape[1]

    def diag_view(arr, o, on_row_axis):
        # generalized diagonal (n, m) = (j+o, j) (row offset) or (j, j+o)
        sl = [slice(None)] * 4
        sl[a if on_row_axis else b] = slice(o, None)
        base = arr[tuple(sl)]
        strides = (
            arr.strides[a] + arr.strides[b],
            arr.strides[rest[0]],
            arr.strides[rest[1]],
        )
        return np.lib.stride_tricks.as_strided(
            base, shape=(d - o,) + rest_shape, strides=strides
        )

    for o in range(d):
        kern = kernels[o]
        for on_row in (True, False) if o else (True,):
            src = diag_view(block, o, on_row).reshape(d - o, flat)
            res = kern @ src.astype(complex, copy=False)
            diag_view(out, o, on_row)[...] = res.reshape((d - o,) + rest_shape)
    return out


def dissipative_map(
    rho: DensityMatrix, stage: StageKind, tau: float, scenario: Scenario
) -> DensityMatrix:
    """Exact dissipative factor of the stage propagator (jump series, then damping)."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    d1, d2 = rho.layout.dims[1], rho.layout.dims[2]
    w1k, w2k = scenario.omega_active(stage)
    r = rho.data.reshape(2, d1, d2, 2, d1, d2)
    out = np.empty_like(r)
    for s, sp in ((EXCITED, EXCITED), (GROUND, GROUND), (EXCITED, GROUND)):
        lam = 2 * (sp - s)
        b = np.ascontiguousarray(r[s, :, :, sp, :, :])
        b = _apply_field_kernels(b, _field_kernels(scenario.gamma_1, w1k, lam, tau, d1), (0, 2))
        b = _apply_field_kernels(b, _field_kernels(scenario.gamma_2, w2k, lam, tau, d2), (1, 3))
        out[s, :, :, sp, :, :] = b
    # the (g, e) block is fixed by Hermiticity of the input; together with the
    # real diagonal-dyad kernels this preserves Hermiticity by construction
    eg = out[EXCITED, :, :, GROUND, :, :]
    out[GROUND, :, :, EXCITED, :, :] = eg.transpose(2, 3, 0, 1).conj()
    data = out.reshape(rho.dim, rho.dim)
    tr = complex(np.trace(data))
    if abs(tr - 1.0) > TRACE_TOL:
        raise NonPhysicalState(f"dissipative map broke the trace by {abs(tr - 1.0):.3e}")
    return DensityMatrix(rho.layout, data)


def _free_phase_vector(scenario: Scenario, tau: float, d1: int, d2: int) -> np.ndarray:
    """Lab-frame phases of the free Hamiltonian (zero-point offsets drop out)."""
    atom = np.array(
        [np.exp(-0.5j * scenario.omega_a * tau), np.exp(0.5j * scenario.omega_a * tau)]
    )
    f1 = _phase_powers(np.exp(-1j * scenario.omega_tilde(1) * tau), d1)
    f2 = _phase_powers(np.exp(-1j * scenario.omega_tilde(2) * tau), d2)
    return (atom[:, None, None] * f1[None, :, None] * f2[None, None, :]).reshape(-1)


def _dispersive_phase_vector(omega: float, tau: float, d1: int, d2: int, which: int) -> np.ndarray:
    p = np.exp(-1j * omega * tau)
    d = d1 if which == 1 else d2
    powers = _phase_powers(p, d + 1)
    e_side, g_side = powers[1:], powers[:d].conj()
    ph = np.empty((2, d1, d2), dtype=complex)
    if which == 1:
        ph[EXCITED] = e_side[:, None]
        ph[GROUND] = g_side[:, None]
    else:
        ph[EXCITED] = e_side[None, :]
        ph[GROUND] = g_side[None, :]
    return ph.reshape(-1)


def _conjugate_atom(data: np.ndarray, r2: np.ndarray, rest: int) -> np.ndarray:
    t = data.reshape(2, rest, 2, rest)
    return np.einsum("ab,bjck,dc->ajdk", r2, t, r2.conj()).reshape(2 * rest, 2 * rest)


def stage_step(
    rho: DensityMatrix, stage: StageKind, tau: float, scenario: Scenario
) -> DensityMatrix:
    """Advance rho by tau within one stage: dissipative map, then the stage unitary."""
    out = dissipative_map(rho, stage, tau, scenario)
    d1, d2 = rho.layout.dims[1], rho.layout.dims[2]
    data = out.data
    if stage is StageKind.CAVITY1 and tau > 0 and scenario.omega_1 != 0:
        ph = _dispersive_phase_vector(scenario.omega_1, tau, d1, d2, which=1)
        data *= ph[:, None]
        data *= ph.conj()[None, :]
    elif stage is StageKind.CAVITY2 and tau > 0 and scenario.omega_2 != 0:
        ph = _dispersive_phase_vector(scenario.omega_2, tau, d1, d2, which=2)
        data *= ph[:, None]
        data *= ph.conj()[None, :]
    elif stage is StageKind.RAMSEY and tau > 0:
        duration = scenario.stage_durations[2]
        theta = scenario.ramsey_angle * (tau / duration) if duration > 0 else 0.0
        if theta:
            data = _conjugate_atom(data, ramsey_unitary(theta), d1 * d2)
    if scenario.frame == "lab" and tau > 0:
        ph = _free_phase_vector(scenario, tau, d1, d2)
        data *= ph[:, None]
        data *= ph.conj()[None, :]
    return DensityMatrix(rho.layout, data)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def initial_state(scenario: Scenario) -> PureState:
    """(|e> + e^{-i phi/2}|g>)/sqrt(2) tensor |alpha> tensor |beta>, truncated."""
    n1, n2 = scenario.truncations()
    atom = np.array([1.0, np.exp(-0.5j * scenario.phi)]) / math.sqrt(2.0)
    c1 = coherent_vector(scenario.alpha, n1, scenario.tail_tol)
    c2 = coherent_vector(scenario.beta, n2, scenario.tail_tol)
    vec = np.kron(atom, np.kron(c1, c2))
    return PureState(standard_layout(n1, n2), vec)


def initial_density(scenario: Scenario) -> DensityMatrix:
    return initial_state(scenario).to_density_matrix()


@dataclass(frozen=True)
class ConcurrenceRecord:
    t_us: float
    c_af1: float
    c_af2: float
    c_f1f2: float
    discarded_weight: float
    purity: float
    flags: str = ""


@dataclass
class Trajectory:
    """Time grid plus state snapshots (dense matrices or coherent-branch states)."""

    scenario: Scenario
    times: np.ndarray
    states: list

    def dense_state(self, i: int) -> DensityMatrix:
        """Snapshot i in Fock space; branch states are densified at the scenario cutoffs."""
        st = self.states[i]
        if isinstance(st, BranchState):
            return branch_densify(st, self.scenario)
        return st

    def dense_states(self) -> list[DensityMatrix]:
        return [self.dense_state(i) for i in range(len(self.states))]

    def records(self) -> list[ConcurrenceRecord]:
        recs = []
        for st, t in zip(self.states, self.times):
            dm = branch_compress(st) if isinstance(st, BranchState) else st
            pc = entanglement.pairwise_concurrences(dm)
            recs.append(
                ConcurrenceRecord(
                    t_us=float(t),
                    c_af1=pc.c_af1,
                    c_af2=pc.c_af2,
                    c_f1f2=pc.c_f1f2,
                    discarded_weight=pc.discarded_weight,
                    purity=dm.purity(),
                    flags=";".join(pc.flags),
                )
            )
        return recs


def _sample_plan(scenario: Scenario, sample_times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if times.size == 0:
        raise ValueError("sample grid is empty")
    if np.any(np.diff(times) < 0):
        raise ValueError("sample times must be sorted")
    bounds = scenario.stage_times()
    if times[0] < -1e-12 or times[-1] > bounds[-1] + 1e-9:
        raise ValueError("sample times outside the scenario time span")
    # each sample belongs to the earliest stage whose interval contains it
    stage_of = np.searchsorted(bounds[1:], times, side="left")
    stage_of = np.minimum(stage_of, 4)
    return times, bounds, stage_of


def run_scenario(scenario: Scenario, sample_times, initial: DensityMatrix | None = None) -> Trajectory:
    """Dense-backend traversal; snapshots at the requested times.

    A zero-duration Ramsey stage is treated as an instantaneous rotation by the
    full pulse area when the traversal crosses it.  In lab mode the traversal
    runs in the rotating frame and each snapshot is dressed with the free
    phases accumulated since t0: referencing the Ramsey drive phase to t0
    keeps the two frames related by a local unitary (dressing stage by stage
    would tilt the pulse axis by the atomic phase accumulated before the
    Ramsey zone, which no measured quantity here can resolve).
    """
    scenario.validate()
    lab = scenario.frame == "lab"
    rot = dataclasses.replace(scenario, frame="rotating") if lab else scenario
    times, bounds, stage_of = _sample_plan(rot, sample_times)
    state = initial if initial is not None else initial_density(rot)
    if not isinstance(state, DensityMatrix):
        raise TypeError("initial must be a DensityMatrix")
    states: list = [None] * times.size
    pos = 0
    for k, stage in enumerate(STAGE_ORDER):
        dur = rot.stage_durations[k]
        while pos < times.size and stage_of[pos] == k:
            tau = float(times[pos] - bounds[k])
            states[pos] = stage_step(state, stage, tau, rot) if tau > 0 else state
            pos += 1
        if dur > 0:
            state = stage_step(state, stage, float(dur), rot)
        elif stage is StageKind.RAMSEY and rot.ramsey_angle != 0.0:
            d1, d2 = state.layout.dims[1], state.layout.dims[2]
            data = _conjugate_atom(state.data, ramsey_unitary(rot.ramsey_angle), d1 * d2)
            state = DensityMatrix(state.layout, data)
    if lab:
        d1, d2 = states[0].layout.dims[1], states[0].layout.dims[2]
        for i, t in enumerate(times):
            if t == 0:
                continue
            ph = _free_phase_vector(scenario, float(t), d1, d2)
            data = states[i].data * ph[:, None]
            data *= ph.conj()[None, :]
            states[i] = DensityMatrix(states[i].layout, data)
    return Trajectory(scenario, times, states)


# ---------------------------------------------------------------------------
# coherent-branch backend
# ---------------------------------------------------------------------------


@dataclass
class BranchState:
    """Sparse exact state: weighted coherent dyads per atomic dyad.

    ``terms[(s, sp)]`` is a list of ``[w, u1, v1, u2, v2]`` entries representing
    ``w |s><sp| (x) |u1><v1| (x) |u2><v2|`` with normalized coherent labels.
    """

    terms: dict = field(default_factory=dict)

    @staticmethod
    def from_scenario(scenario: Scenario) -> "BranchState":
        amps = (1.0 / math.sqrt(2.0), np.exp(-0.5j * scenario.phi) / math.sqrt(2.0))
        terms = {}
        for s in (EXCITED, GROUND):
            for sp in (EXCITED, GROUND):
                w = amps[s] * np.conj(amps[sp])
                terms[(s, sp)] = [[w, scenario.alpha, scenario.alpha, scenario.beta, scenario.beta]]
        return BranchState(terms)

    def branch_count(self) -> int:
        return max(len(v) for v in self.terms.values())


def _branch_ramsey_mix(terms: dict, theta: float) -> dict:
    r = ramsey_unitary(theta)
    mixed: dict = {(a, b): [] for a in (0, 1) for b in (0, 1)}
    for (s, sp), lst in terms.items():
        for w, u1, v1, u2, v2 in lst:
            for a in (0, 1):
                ra = r[a, s]
                if ra == 0:
                    continue
                for b in (0, 1):
                    rb = np.conj(r[b, sp])
                    if rb == 0:
                        continue
                    mixed[(a, b)].append([w * ra * rb, u1, v1, u2, v2])
    return mixed


def branch_step(bs: BranchState, stage: StageKind, tau: float, scenario: Scenario) -> BranchState:
    """Advance a BranchState by tau within one stage (exact label/weight algebra)."""
    sc = scenario
    w1k, w2k = sc.omega_active(stage)
    dec1, dec2 = math.exp(-sc.gamma_1 * tau), math.exp(-sc.gamma_2 * tau)
    shrink1, shrink2 = 0.5 * (dec1 * dec1 - 1.0), 0.5 * (dec2 * dec2 - 1.0)
    p1 = np.exp(-1j * w1k * tau)
    p2 = np.exp(-1j * w2k * tau)
    lab = sc.frame == "lab"
    if lab:
        q1 = np.exp(-1j * sc.omega_tilde(1) * tau)
        q2 = np.exp(-1j * sc.omega_tilde(2) * tau)
        atom_lab = (np.exp(-0.5j * sc.omega_a * tau), np.exp(0.5j * sc.omega_a * tau))
    new_terms = {}
    for (s, sp), lst in bs.terms.items():
        lam = 2 * (sp - s)
        f1 = _f_coefficient(sc.gamma_1, w1k * lam, tau)
        f2 = _f_coefficient(sc.gamma_2, w2k * lam, tau)
        out = []
        for w, u1, v1, u2, v2 in lst:
            w = w * np.exp(
                f1 * u1 * np.conj(v1)
                + (abs(u1) ** 2 + abs(v1) ** 2) * shrink1
                + f2 * u2 * np.conj(v2)
                + (abs(u2) ** 2 + abs(v2) ** 2) * shrink2
            )
            u1, v1 = u1 * dec1, v1 * dec1
            u2, v2 = u2 * dec2, v2 * dec2
            if w1k != 0.0:
                if s == EXCITED:
                    w, u1 = w * p1, u1 * p1
                else:
                    u1 = u1 * np.conj(p1)
                if sp == EXCITED:
                    w, v1 = w * np.conj(p1), v1 * p1
                else:
                    v1 = v1 * np.conj(p1)
            if w2k != 0.0:
                if s == EXCITED:
                    w, u2 = w * p2, u2 * p2
                else:
                    u2 = u2 * np.conj(p2)
                if sp == EXCITED:
                    w, v2 = w * np.conj(p2), v2 * p2
                else:
                    v2 = v2 * np.conj(p2)
            if lab:
                w = w * atom_lab[s] * np.conj(atom_lab[sp])
                u1, v1 = u1 * q1, v1 * q1
                u2, v2 = u2 * q2, v2 * q2
            out.append([w, u1, v1, u2, v2])
        new_terms[(s, sp)] = out
    if stage is StageKind.RAMSEY and tau > 0:
        duration = sc.stage_durations[2]
        theta = sc.ramsey_angle * (tau / duration) if duration > 0 else 0.0
        if theta:
            new_terms = _branch_ramsey_mix(new_terms, theta)
    return BranchState(new_terms)


def branch_densify(bs: BranchState, scenario: Scenario) -> DensityMatrix:
    """Materialize a BranchState as a dense DensityMatrix at the scenario truncations."""
    n1, n2 = scenario.truncations()
    layout = standard_layout(n1, n2)
    cache: dict = {}

    def vec(label: complex, n: int, which: int) -> np.ndarray:
        key = (which, label)
        if key not in cache:
            cache[key] = coherent_vector(label, n, scenario.tail_tol)
        return cache[key]

    rest = (n1 + 1) * (n2 + 1)
    out = np.zeros((2, rest, 2, rest), dtype=complex)
    for (s, sp), lst in bs.terms.items():
        for w, u1, v1, u2, v2 in lst:
            fu = np.kron(vec(u1, n1, 1), vec(u2, n2, 2))
            fv = np.kron(vec(v1, n1, 1), vec(v2, n2, 2))
            out[s, :, sp, :] += w * np.outer(fu, fv.conj())
    return DensityMatrix(layout, out.reshape(layout.dim, layout.dim))


def _label_isometry(labels: list) -> np.ndarray:
    """Columns are the coordinates of the coherent states |labels> in an orthonormal basis.

    With the Gram matrix G = U diag(lam) U^dag of exact overlaps, L = diag(lam)^1/2 U^dag
    satisfies L^dag L = G.  No inverse is taken, so coinciding labels are harmless.
    At least two rows are kept so that every field stays an (effective) qubit.
    """
    gram = np.array([[coherent_overlap(a, b) for b in labels] for a in labels])
    lam, vecs = np.linalg.eigh(gram)
    iso = np.zeros((max(2, len(labels)), len(labels)), dtype=complex)
    iso[: len(labels)] = np.sqrt(np.clip(lam, 0.0, None))[:, None] * vecs.conj().T
    return iso


def branch_compress(bs: BranchState) -> DensityMatrix:
    """Exact small DensityMatrix of a BranchState on its coherent-label bases.

    Field i is represented on the orthonormalized span of its distinct labels,
    of dimension r_i = max(2, label count), giving the layout (2, r1, r2).  The
    result is the dense state conjugated by an isometry, so concurrences,
    effective-qubit reductions and purity equal those of the untruncated state.
    """
    rows = [(s, sp, *term) for (s, sp), lst in bs.terms.items() for term in lst]
    atom_u, atom_v, w, u1, v1, u2, v2 = (list(col) for col in zip(*rows))
    labels1 = list(dict.fromkeys(u1 + v1))
    labels2 = list(dict.fromkeys(u2 + v2))
    iso1, iso2 = _label_isometry(labels1), _label_isometry(labels2)
    r1, r2 = iso1.shape[0], iso2.shape[0]

    def side(atom, lab1, lab2):
        # |atom> (x) |lab1> (x) |lab2> in label coordinates, one row per term
        vec = np.zeros((len(rows), 2, r1, r2), dtype=complex)
        c1 = iso1[:, [labels1.index(a) for a in lab1]].T
        c2 = iso2[:, [labels2.index(b) for b in lab2]].T
        vec[np.arange(len(rows)), atom] = c1[:, :, None] * c2[:, None, :]
        return vec.reshape(len(rows), -1)

    left, right = side(atom_u, u1, u2), side(atom_v, v1, v2)
    data = (left.T * np.asarray(w)) @ right.conj()
    return DensityMatrix(SubsystemLayout((2, r1, r2), ("atom", "field1", "field2")), data)


def _branch_dress(bs: BranchState, scenario: Scenario, t: float) -> BranchState:
    """Free-phase dressing of a rotating-frame BranchState at elapsed time t."""
    q1 = np.exp(-1j * scenario.omega_tilde(1) * t)
    q2 = np.exp(-1j * scenario.omega_tilde(2) * t)
    atom = (np.exp(-0.5j * scenario.omega_a * t), np.exp(0.5j * scenario.omega_a * t))
    terms = {}
    for (s, sp), lst in bs.terms.items():
        phase = atom[s] * np.conj(atom[sp])
        terms[(s, sp)] = [
            [w * phase, u1 * q1, v1 * q1, u2 * q2, v2 * q2] for w, u1, v1, u2, v2 in lst
        ]
    return BranchState(terms)


def branch_run(scenario: Scenario, sample_times, initial: BranchState | None = None) -> Trajectory:
    """Coherent-branch traversal; snapshots stay sparse (see :func:`branch_compress`).

    Lab mode dresses the rotating-frame snapshots with the free phases
    accumulated since t0, mirroring :func:`run_scenario`.
    """
    scenario.validate()
    if initial is not None and not isinstance(initial, BranchState):
        raise UnsupportedInitialState(
            "the branch backend evolves atomic superposition (x) coherent (x) coherent "
            "states only; pass a BranchState or use the dense backend"
        )
    lab = scenario.frame == "lab"
    rot = dataclasses.replace(scenario, frame="rotating") if lab else scenario
    times, bounds, stage_of = _sample_plan(rot, sample_times)
    state = initial if initial is not None else BranchState.from_scenario(rot)
    states: list = [None] * times.size
    pos = 0
    for k, stage in enumerate(STAGE_ORDER):
        dur = rot.stage_durations[k]
        while pos < times.size and stage_of[pos] == k:
            tau = float(times[pos] - bounds[k])
            states[pos] = branch_step(state, stage, tau, rot) if tau > 0 else state
            pos += 1
        if dur > 0:
            state = branch_step(state, stage, float(dur), rot)
        elif stage is StageKind.RAMSEY and rot.ramsey_angle != 0.0:
            state = BranchState(_branch_ramsey_mix(state.terms, rot.ramsey_angle))
    if lab:
        states = [
            _branch_dress(st, scenario, float(t)) if t > 0 else st
            for st, t in zip(states, times)
        ]
    return Trajectory(scenario, times, states)
