"""Cross-backend certification suites behind the ``validate`` CLI verb.

``quick`` cross-checks the closed form, the dense map and the branch backend on
the first cavity in a few seconds.  ``full`` re-runs the branch-vs-dense
certification over the whole experimental grid, certifies the dense backend
against the brute-force integrator and adds :func:`invariant_checks`.  Each
invariant is measured by one private helper here; the checks choose the grids.
An exact eigen-solve runs only where a rigorous bound is inconclusive: every
trace distance first tries ``sqrt(D) ||X||_F / 2``
(:func:`~cavsim.hilbert.certified_half_trace_norm`), and the positivity checks
first try a shifted Cholesky factorization
(:func:`~cavsim.hilbert.certified_min_eigenvalue`), so a healthy run needs no
eigen-solve.  The distances are certified in plain loops; the positivity
certificates run two at a time, one on the worker thread of
:func:`~cavsim.evolution._in_halves`.  Every reduction over values keeps a NaN,
so a NaN fails its check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import analytic, lindblad
from .entanglement import monogamy_residual
from .evolution import (
    Scenario,
    StageKind,
    _dense_record,
    _in_halves,
    branch_run,
    default_truncation,
    initial_density,
    run_scenario,
    stage_step,
)
from .hilbert import (
    certified_half_trace_norm,
    certified_min_eigenvalue,
    certified_trace_distance,
    trace_distance,  # not called here: bench/spans.py wraps validation.trace_distance
)

CERT_GRID = (0.0, 0.05, 0.5, 1.0)
CERT_AMPLITUDES = (0.5, 1.0, 2.0)
CERT_MARGIN = 10  # Fock cutoffs above the default rule for raw-state comparisons
CONCURRENCES = ("c_af1", "c_af2", "c_f1f2")
STATE_TOL = 1e-8  # trace distance of states, and record gap, between backends
LANDMARK_TOL = 1e-6  # closed-form concurrence landmark
MIN_EIGENVALUE = -1e-9  # most negative snapshot eigenvalue accepted as roundoff
CERT_TIMES = 9  # samples per branch-certification run
ORACLE_TOL = 1e-6  # trace distance of dense and oracle states
ORACLE_CHECKPOINTS = 10  # samples of the oracle certification run
FRAME_TOL = 1e-8  # concurrence shift between the rotating and lab frames
SEMIGROUP_TOL = 1e-9  # trace distance of one step and two split steps
MIN_CKW_RESIDUAL = -1e-6  # most negative CKW monogamy residual accepted as roundoff
INVARIANT_MARGIN = 5  # Fock cutoffs above the default rule for the invariant suites
SEMIGROUP_STAGES = (StageKind.CAVITY1, StageKind.FREE1, StageKind.RAMSEY, StageKind.CAVITY2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_LOWEST_EIGENVALUE = "minimum eigenvalue at least"  # quantity of the positivity checks
_WORST_DISTANCE = "worst trace distance at most"  # quantity of the distance checks


def _bounded(name: str, quantity: str, value: float, passed: bool, tol: float) -> CheckResult:
    return CheckResult(name, passed, f"{quantity} {value:.3e} (tol {tol:.1e})")


def _record_gap(recs_a, recs_b, fields) -> float:
    """Largest difference of the given record fields between two record lists (NaN kept)."""
    gaps = [abs(getattr(a, f) - getattr(b, f)) for a, b in zip(recs_a, recs_b) for f in fields]
    return float(np.max(gaps))


def _with_margin(sc: Scenario, margin: int = CERT_MARGIN) -> Scenario:
    """sc with both Fock cutoffs ``margin`` above the default rule."""
    n1, n2 = default_truncation(sc.alpha) + margin, default_truncation(sc.beta) + margin
    return sc.variant(n1=n1, n2=n2)


def _lowest_eigenvalue(st) -> float:
    return certified_min_eigenvalue(st.validate().data, MIN_EIGENVALUE)


def _min_eigenvalue(states) -> float:
    """A lower bound on the smallest eigenvalue of the states, at most 0, that is at
    least MIN_EIGENVALUE iff the exact value is; each state is validated first.

    The states are certified two at a time (:func:`~cavsim.evolution._in_halves`),
    and no more than two of them are held at once.
    """
    worst, states = 0.0, iter(states)
    for first in states:
        second = next(states, first)  # an odd last state is certified on both threads
        pair = _in_halves(first.data.size, _lowest_eigenvalue, (first,), (second,))
        del first, second  # not held while the next pair is made
        worst = float(np.min([worst, *pair]))
    return worst


def _frame_shift(sc: Scenario, times) -> float:
    """Largest pairwise-concurrence shift between the rotating- and lab-frame runs of sc."""
    rot = run_scenario(sc, times).records()
    lab = run_scenario(sc.variant(frame="lab"), times).records()
    return _record_gap(rot, lab, CONCURRENCES)


def _semigroup_gap(sc: Scenario, stages=SEMIGROUP_STAGES) -> float:
    """An upper bound on the largest trace distance of stage_step(9 us) and
    stage_step(5 us) after stage_step(4 us), below SEMIGROUP_TOL iff the exact value is."""
    rho, worst = initial_density(sc), 0.0
    for stage in stages:
        one = stage_step(rho, stage, 9.0, sc)
        two = stage_step(stage_step(rho, stage, 4.0, sc), stage, 5.0, sc)
        worst = float(np.max([worst, certified_trace_distance(one, two, SEMIGROUP_TOL)]))
    return worst


def _ckw_residual(states) -> float:
    """Smallest CKW residual tau_A - C_AF1^2 - C_AF2^2 (pure states only); -inf if one is mixed."""
    residuals = list(map(monogamy_residual, states))
    return -math.inf if None in residuals else float(np.min(residuals))


def _stage1_scenario(alpha, g, t1: float = 1000.0) -> Scenario:
    sc = Scenario().variant(g=g, q=0.0, alpha=alpha)
    return _with_margin(sc.variant(stage_durations=(t1, 0.0, 0.0, 0.0, 0.0)))


def _stage1_differences(sc: Scenario, times):
    """Yield analytic - dense, then dense - branch, at each sample of sc.

    Each sample runs on its own (a stage-1 sample is one step from the initial
    state, whatever the other samples), each difference is formed in place in
    the matrix just built, and the dense snapshot is dropped once both of its
    differences exist.
    """
    for t in map(float, times):
        dense = run_scenario(sc, [t]).states[0].data
        delta = analytic.rho_stage1(t, sc).data
        delta -= dense
        yield delta
        del delta  # the frame keeps no difference alive while the next is built
        delta = branch_run(sc, [t]).dense_state(0).data
        yield np.subtract(dense, delta, out=delta)
        del delta, dense


def stage1_equivalence(alphas, gs, times) -> list[CheckResult]:
    """Analytic vs dense vs branch on the first cavity.

    Each distance is certified against STATE_TOL, so the worst values reported
    are upper bounds where the Frobenius bound decided and exact elsewhere.
    """
    certify = functools.partial(certified_half_trace_norm, bound=STATE_TOL)
    worst_ad = worst_bd = 0.0
    for alpha in alphas:
        for g in gs:
            sc = _stage1_scenario(alpha, g, t1=float(max(times)))
            dists = list(map(certify, _stage1_differences(sc, times)))
            # np.max, unlike max, keeps a NaN
            worst_ad = float(np.max([worst_ad, *dists[0::2]]))
            worst_bd = float(np.max([worst_bd, *dists[1::2]]))
    return [
        _bounded(f"{name} (stage 1)", _WORST_DISTANCE, worst, worst < STATE_TOL, STATE_TOL)
        for name, worst in (("analytic-vs-dense", worst_ad), ("branch-vs-dense", worst_bd))
    ]


def concurrence_landmark() -> CheckResult:
    """Lossless peak sqrt(1 - e^{-4|a|^2}) at omega_1 t = pi/2 and zero at pi."""
    sc = _stage1_scenario(1.0, 0.0)
    t_peak = 0.5 * math.pi / sc.omega_1
    peak = analytic.concurrence_stage1(t_peak, sc)
    zero = analytic.concurrence_stage1(2.0 * t_peak, sc)
    expected = math.sqrt(1.0 - math.exp(-4.0))
    ok = abs(peak - expected) < LANDMARK_TOL and zero < LANDMARK_TOL
    detail = f"peak {peak:.8f} vs {expected:.8f}, zero crossing {zero:.2e}"
    return CheckResult("concurrence landmark", ok, detail)


def snapshot_invariants() -> CheckResult:
    """Hermiticity/trace/positivity of dense snapshots along a lossy traversal."""
    sc = Scenario().variant(g=0.5, q=0.5, alpha=1.0, beta=1.0)
    worst = _min_eigenvalue(run_scenario(sc, np.linspace(0.0, sc.total_time(), 16)).snapshots())
    passed = worst >= MIN_EIGENVALUE
    return _bounded("snapshot invariants", _LOWEST_EIGENVALUE, worst, passed, MIN_EIGENVALUE)


def quick_checks() -> list[CheckResult]:
    times = np.array([120.0, 400.0, 900.0])
    results = stage1_equivalence((1.0,), (0.05,), times)
    results.append(concurrence_landmark())
    results.append(snapshot_invariants())
    return results


def branch_certification() -> CheckResult:
    """Branch vs dense over the full (alpha, beta, g, q) experimental grid.

    Both the states (trace distance) and the records (concurrences and purity,
    which the branch backend extracts without densifying) are certified.  Each
    dense trajectory is read once: every snapshot is compared with its branch
    state, gives its record and is dropped.
    """
    certify = functools.partial(certified_trace_distance, bound=STATE_TOL)
    first_failure = ""
    worst_record = 0.0
    t0 = time.perf_counter()
    for alpha in CERT_AMPLITUDES:
        for beta in CERT_AMPLITUDES:
            sc = _with_margin(Scenario().variant(alpha=alpha, beta=beta))
            times = np.linspace(0.0, sc.total_time(), CERT_TIMES)
            for g in CERT_GRID:
                for q in CERT_GRID:
                    run_sc = sc.variant(g=g, q=q)
                    branch = branch_run(run_sc, times)
                    branch.states  # one walk, kept: dense_state(i) and records() reuse it
                    snapshots = run_scenario(run_sc, times).snapshots()
                    dense_records = []
                    for i, t in enumerate(times):
                        st = next(snapshots)
                        if not (first_failure or certify(st, branch.dense_state(i)) < STATE_TOL):
                            first_failure = f"alpha={alpha} beta={beta} g={g} q={q} t={t:.1f}"
                        dense_records.append(_dense_record(t, st))
                        del st  # not kept while the walk makes the next snapshot
                    gap = _record_gap(dense_records, branch.records(), CONCURRENCES + ("purity",))
                    worst_record = float(np.max([worst_record, gap]))
    elapsed = time.perf_counter() - t0
    passed = not first_failure and worst_record < STATE_TOL
    runs = len(CERT_AMPLITUDES) ** 2 * len(CERT_GRID) ** 2
    detail = f"{runs} runs in {elapsed:.1f}s, worst record gap {worst_record:.1e}" + (
        f"; first failure {first_failure}" if first_failure else ""
    )
    return CheckResult("branch-vs-dense (full grid)", passed, detail)


def oracle_certification() -> CheckResult:
    """Dense factorized maps vs direct master-equation integration."""
    sc = Scenario().variant(g=0.05, q=0.05, alpha=1.0, beta=1.0, n1=20, n2=20)
    times = np.linspace(0.0, sc.total_time(), ORACLE_CHECKPOINTS)
    t0 = time.perf_counter()
    dense = run_scenario(sc, times)
    oracle = lindblad.run_oracle(sc, times)
    certify = functools.partial(certified_trace_distance, bound=ORACLE_TOL)
    worst = float(np.max(list(map(certify, dense.snapshots(), oracle.states))))
    elapsed = time.perf_counter() - t0
    detail = f"{_WORST_DISTANCE} {worst:.3e} (tol {ORACLE_TOL:.1e}) in {elapsed:.1f}s"
    return CheckResult("dense-vs-oracle (5 stages)", worst < ORACLE_TOL, detail)


def frame_invariance() -> CheckResult:
    """Pairwise concurrences agree between the rotating and lab frames."""
    sc = Scenario().variant(g=0.05, q=0.5, alpha=1.0, beta=0.5)
    worst = _frame_shift(sc, np.linspace(0.0, sc.total_time(), 7))
    detail = f"worst concurrence shift {worst:.3e}"
    return CheckResult("frame invariance", worst < FRAME_TOL, detail)


def semigroup_property() -> CheckResult:
    """stage_step(t1+t2) equals stage_step(t2) after stage_step(t1), per stage."""
    worst = _semigroup_gap(Scenario().variant(g=0.5, q=0.3, alpha=1.0, beta=0.8))
    detail = f"{_WORST_DISTANCE} {worst:.3e}"
    return CheckResult("semigroup property", worst < SEMIGROUP_TOL, detail)


def invariant_checks() -> list[CheckResult]:
    """Physicality, frame shift and semigroup law on a lossy run (12 samples), and
    CKW monogamy on pure lossless runs (8 samples), at INVARIANT_MARGIN cutoffs."""
    sc = _with_margin(Scenario().variant(g=0.5, q=0.5, alpha=1.0, beta=1.0), INVARIANT_MARGIN)
    times = np.linspace(0.0, sc.total_time(), 12)
    lam_min = _min_eigenvalue(run_scenario(sc, times).snapshots())
    shift, gap = _frame_shift(sc, times), _semigroup_gap(sc)
    pure = [_with_margin(Scenario().variant(alpha=a, beta=a), INVARIANT_MARGIN) for a in (0.5, 1.0)]
    runs = (run_scenario(p, np.linspace(0.0, p.total_time(), 8)) for p in pure)
    ckw = float(np.min([_ckw_residual(run.snapshots()) for run in runs]))
    checks = (  # name, quantity, value, passed, tolerance
        ("physicality", _LOWEST_EIGENVALUE, lam_min, lam_min >= MIN_EIGENVALUE, MIN_EIGENVALUE),
        ("frame invariance", "worst concurrence shift", shift, shift < FRAME_TOL, FRAME_TOL),
        ("semigroup property", _WORST_DISTANCE, gap, gap < SEMIGROUP_TOL, SEMIGROUP_TOL),
        ("CKW monogamy", "smallest residual", ckw, ckw >= MIN_CKW_RESIDUAL, MIN_CKW_RESIDUAL),
    )
    return [_bounded(f"{name} (margin cutoffs)", *row) for name, *row in checks]


def full_checks() -> list[CheckResult]:
    results = quick_checks()
    results.append(semigroup_property())
    results.append(frame_invariance())
    results.append(branch_certification())
    results.append(oracle_certification())
    results.extend(invariant_checks())
    return results
