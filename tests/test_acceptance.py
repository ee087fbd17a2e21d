"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 5a, 5b and 5d
encode qualitative claims that the model at the documented unit convention
does not actually produce (see the failure messages for the measured values);
they are implemented as stated and left red rather than loosened.
"""

import math
import time
from functools import lru_cache

import numpy as np

from cavsim import (
    Scenario,
    branch_run,
    concurrence_stage1,
    initial_density,
    mean_photon_number,
    rho_stage1,
    run_scenario,
)
from cavsim import validation
from cavsim.hilbert import trace_distance_below
from cavsim.validation import CERT_AMPLITUDES, CERT_GRID
ZERO_FLOOR = 1e-12  # numerical floor below which a concurrence is an exact zero


def report(line: str) -> None:
    print(line, flush=True)


def single_cavity(alpha: float, g: float, n1: int, t1: float = 1000.0) -> Scenario:
    return Scenario().variant(
        alpha=alpha,
        g=g,
        q=0.0,
        n1=n1,
        n2=14,
        stage_durations=(t1, 0.0, 0.0, 0.0, 0.0),
    )


def test_criterion_1_analytic_dense_equivalence():
    """Analytic vs dense over (alpha, g) x 20 time points, < 1e-8, < 2 min at N1 <= 35."""
    t0 = time.perf_counter()
    times = np.linspace(0.0, 1000.0, 20)
    ok = True
    for alpha in CERT_AMPLITUDES:
        for g in CERT_GRID:
            sc = single_cavity(alpha, g, n1=35)
            dense = run_scenario(sc, times)
            for i, t in enumerate(times):
                if not trace_distance_below(rho_stage1(float(t), sc), dense.states[i], 1e-8):
                    ok = False
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < 120.0 else "FAIL"
    report(
        f"ACCEPTANCE 1 analytic-dense equivalence: {status} "
        f"(all 240 points certified < 1e-8; {elapsed:.1f}s)"
    )
    assert ok, "a state pair exceeded trace distance 1e-8"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"


def test_criterion_2_concurrence_landmark():
    """Lossless peak sqrt(1-e^{-4|a|^2}) at w1 t = pi/2; zeros at multiples of pi."""
    sc = single_cavity(1.0, 0.0, n1=25)
    peak_expected = math.sqrt(1.0 - math.exp(-4.0))
    c_peak = concurrence_stage1(251.33, sc)
    t_zero = math.pi / sc.omega_1
    c_zero = concurrence_stage1(t_zero, sc)
    ok = abs(c_peak - 0.99080) < 1e-6 and c_zero < 1e-6
    report(
        f"ACCEPTANCE 2 concurrence landmark: {'PASS' if ok else 'FAIL'} "
        f"(C(251.33us) = {c_peak:.8f} vs 0.99080, C({t_zero:.2f}us) = {c_zero:.2e})"
    )
    assert abs(c_peak - 0.99080) < 1e-6
    assert abs(c_peak - peak_expected) < 1e-6
    assert c_zero < 1e-6
    # the other amplitudes obey the same closed form at their peaks
    for alpha in (0.5, 2.0):
        sca = single_cavity(alpha, 0.0, n1=30)
        tp = 0.5 * math.pi / sca.omega_1
        expected = math.sqrt(1.0 - math.exp(-4.0 * alpha**2))
        assert abs(concurrence_stage1(tp, sca) - expected) < 1e-9


def test_criterion_3_oracle_certification():
    """Dense factorized run vs brute-force integration, < 1e-6 at 10 checkpoints."""
    t0 = time.perf_counter()
    result = validation.oracle_certification()
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 600.0
    report(f"ACCEPTANCE 3 oracle certification: {'PASS' if ok else 'FAIL'} ({result.detail})")
    assert result.passed, result.detail
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10 minutes"


def test_criterion_4_branch_backend_certification():
    """Branch vs dense on the full experimental grid (< 1e-8) and >= 10x faster at N=25.

    The grid run is :func:`cavsim.validation.branch_certification`, which
    certifies both the states and the records.
    """
    result = validation.branch_certification()
    # relative timing gate at N = 25 (snapshot evolution, densification on demand);
    # snapshots are made when read, so each timed run reads its states
    sc25 = Scenario().variant(alpha=1.0, beta=1.0, g=0.05, q=0.05, n1=25, n2=25)
    times25 = np.linspace(0.0, sc25.total_time(), 10)
    t0 = time.perf_counter()
    run_scenario(sc25, times25).states
    dense_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    branch_run(sc25, times25).states
    branch_time = time.perf_counter() - t0
    speedup = dense_time / max(branch_time, 1e-9)
    ok = result.passed and speedup >= 10.0
    report(
        f"ACCEPTANCE 4 branch certification: {'PASS' if ok else 'FAIL'} "
        f"({result.detail}, speedup x{speedup:.0f})"
    )
    assert result.passed, result.detail
    assert speedup >= 10.0


@lru_cache(maxsize=None)
def _records(alpha: float, beta: float, g: float, q: float):
    sc = Scenario().variant(g=g, q=q, alpha=alpha, beta=beta)
    times = np.linspace(0.0, sc.total_time(), 181)
    return tuple(branch_run(sc, times).records())


def _max_c(records, field: str) -> float:
    return max(getattr(r, field) for r in records)


def test_criterion_5a_second_cavity_dissipation_suppression():
    """Ideal first cavity, q=1: max C_F1F2 and max C_AF2 each < 20% of their q=0 maxima."""
    base = _records(0.5, 0.5, 0.0, 0.0)
    lossy = _records(0.5, 0.5, 0.0, 1.0)
    af2_ratio = _max_c(lossy, "c_af2") / _max_c(base, "c_af2")
    ff_base = _max_c(base, "c_f1f2")
    ff_lossy = _max_c(lossy, "c_f1f2")
    ok_af2 = af2_ratio < 0.2
    ok_ff = ff_lossy < 0.2 * ff_base
    status = "PASS" if (ok_af2 and ok_ff) else "FAIL"
    report(
        f"ACCEPTANCE 5a q=1 suppression: {status} "
        f"(C_AF2 ratio {af2_ratio:.3f} vs < 0.2; "
        f"C_F1F2 maxima {ff_lossy:.2e} vs {ff_base:.2e}, both numerical zeros)"
    )
    assert ok_af2 and ok_ff, (
        f"measured max C_AF2(q=1)/max C_AF2(q=0) = {af2_ratio:.3f}, not < 0.2: at the "
        "documented unit convention the 30us crossing rotates the branches by only "
        "0.19 rad, so q=1 merely shrinks the field-2 branch separation by e^{-gamma t}; "
        "the field-field maxima are exact zeros on both sides (atom-mediated dispersive "
        "coupling never entangles the traced-out fields), making their < comparison vacuous"
    )


def test_criterion_5b_first_cavity_dissipation_suppression():
    """Ideal second cavity, g=1: max C_F1F2 and max C_AF1 each < 20% of their g=0 maxima."""
    base = _records(0.5, 0.5, 0.0, 0.0)
    lossy = _records(0.5, 0.5, 1.0, 0.0)
    af1_ratio = _max_c(lossy, "c_af1") / _max_c(base, "c_af1")
    ff_base = _max_c(base, "c_f1f2")
    ff_lossy = _max_c(lossy, "c_f1f2")
    ok_af1 = af1_ratio < 0.2
    ok_ff = ff_lossy < 0.2 * ff_base
    status = "PASS" if (ok_af1 and ok_ff) else "FAIL"
    report(
        f"ACCEPTANCE 5b g=1 suppression: {status} "
        f"(C_AF1 ratio {af1_ratio:.3f} vs < 0.2; "
        f"C_F1F2 maxima {ff_lossy:.2e} vs {ff_base:.2e})"
    )
    assert ok_af1 and ok_ff, (
        f"measured max C_AF1(g=1)/max C_AF1(g=0) = {af1_ratio:.3f}, not < 0.2: the "
        "atom-field-1 maximum is set inside cavity 1 where gamma_1 t <= 0.19 at g=1, "
        "so damping shaves amplitudes by at most e^{-0.19}; later stages act locally "
        "on the atom side and cannot raise it back"
    )


def test_criterion_5c_field_field_maximum_ordering():
    """max C_F1F2 monotone non-increasing along the (g,q) diagonal."""
    maxima = [_max_c(_records(0.5, 0.5, r, r), "c_f1f2") for r in CERT_GRID]
    diffs = np.diff(maxima)
    ok = bool(np.all(diffs <= 1e-9))
    report(
        f"ACCEPTANCE 5c diagonal ordering: {'PASS' if ok else 'FAIL'} "
        f"(maxima {['%.2e' % m for m in maxima]}, all exact zeros)"
    )
    assert ok


def test_criterion_5d_sudden_death():
    """Some (beta >= 1, q >= 0.5) run kills C_AF1 exactly over a finite interval."""
    found = None
    min_after_birth = math.inf
    for beta in (1.0, 2.0):
        for q in (0.5, 1.0):
            recs = _records(0.5, beta, 0.0, q)
            c = np.array([r.c_af1 for r in recs])
            born = c > ZERO_FLOOR
            dead = c <= ZERO_FLOOR
            if born.any():
                first_birth = int(np.argmax(born))
                tail = c[first_birth:]
                min_after_birth = min(min_after_birth, float(tail.min()))
                # maximal run of >= 3 consecutive exact zeros after birth
                run = 0
                for i in range(first_birth, len(c)):
                    run = run + 1 if dead[i] else 0
                    if run >= 3:
                        found = (beta, q, recs[i - 2].t_us)
                        break
            if found:
                break
        if found:
            break
    status = "PASS" if found else "FAIL"
    report(
        f"ACCEPTANCE 5d sudden death: {status} "
        f"(min post-birth C_AF1 over the grid = {min_after_birth:.3f})"
    )
    assert found is not None, (
        f"no (beta, q) run reaches C_AF1 = 0 after birth; the smallest value seen is "
        f"{min_after_birth:.3f}: at the documented unit convention the which-path "
        "weight acquired in 30us (branch angle 0.19 rad) never outgrows the "
        "atom-field-1 coherence, so the Wootters max(0, .) never clips"
    )


def test_criterion_6_invariant_suites():
    """Trace/Hermiticity/positivity per snapshot; frame invariance; semigroup; CKW.

    The suites are :func:`cavsim.validation.invariant_checks`.
    """
    results = validation.invariant_checks()
    ok = len(results) == 4 and all(r.passed for r in results)
    details = "; ".join(f"{r.name}: {r.detail}" for r in results)
    report(f"ACCEPTANCE 6 invariant suites: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, details


def test_criterion_7_mean_photon_decay():
    """<n>(t) = <n>(0) e^{-2 gamma t} to 1e-8 relative with couplings off."""
    sc = Scenario().variant(
        alpha=1.5, beta=0.5, g=0.6, q=0.0, n1=30, n2=14,
        omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None, ramsey_angle=0.0,
    )
    rho = initial_density(sc)
    n0 = mean_photon_number(rho, "field1")
    worst = 0.0
    for t in (7.0, 30.0, 90.0):
        st = run_scenario(sc, [t]).states[0]
        expected = n0 * math.exp(-2.0 * sc.gamma_1 * t)
        worst = max(worst, abs(mean_photon_number(st, "field1") - expected) / n0)
    ok = worst < 1e-8
    report(f"ACCEPTANCE 7 mean-photon decay: {'PASS' if ok else 'FAIL'} (worst rel err {worst:.2e})")
    assert ok


def test_criterion_8_deterministic_csv(tmp_path):
    """Two runs of a preset produce byte-identical CSV files."""
    from cavsim.cli import main

    ok = True
    for preset in ("fig2", "fig4"):
        out1 = tmp_path / f"{preset}_run1"
        out2 = tmp_path / f"{preset}_run2"
        assert main(["preset", preset, "--out", str(out1)]) == 0
        assert main(["preset", preset, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        if names != sorted(p.name for p in out2.iterdir()):
            ok = False
        for name in names:
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                ok = False
    report(f"ACCEPTANCE 8 CSV determinism: {'PASS' if ok else 'FAIL'} (fig2 + fig4, byte compare)")
    assert ok
