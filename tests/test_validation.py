"""The concurrent eigen-solve map behind every certification check."""

import itertools
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cavsim import (
    DensityMatrix,
    NonPhysicalState,
    Scenario,
    analytic,
    branch_run,
    initial_density,
    rho_stage1,
    run_scenario,
    stage_step,
    standard_layout,
    trace_distance,
    validation,
)
from cavsim import hilbert
from cavsim.hilbert import certified_half_trace_norm, half_trace_norm, trace_distance_below
from cavsim.validation import (
    EIGEN_WORKERS,
    MIN_CKW_RESIDUAL,
    MIN_EIGENVALUE,
    SEMIGROUP_STAGES,
    STATE_TOL,
    _eigen_map,
    _min_eigenvalue,
)

from conftest import random_density


def slow_square(x):
    time.sleep(0.002 * (x % 3))  # later items often finish first
    return x * x


class TestEigenMap:
    def test_results_in_input_order(self):
        assert list(_eigen_map(slow_square, range(12))) == [x * x for x in range(12)]

    def test_empty(self):
        assert list(_eigen_map(slow_square, [])) == []

    def test_lazy(self):
        pulled = []

        def items():
            for i in range(1000):
                pulled.append(i)
                yield i

        assert list(itertools.islice(_eigen_map(slow_square, items()), 5)) == [0, 1, 4, 9, 16]
        assert len(pulled) <= 5 + EIGEN_WORKERS

    def test_never_more_than_workers_items_outstanding(self):
        lock = threading.Lock()
        pulled = finished = consumed = 0
        outstanding = []

        def items():
            nonlocal pulled
            for i in range(10):
                pulled += 1
                with lock:  # pulled but not finished, this item included
                    outstanding.append(pulled - finished)
                yield i

        def work(x):
            nonlocal finished
            time.sleep(0.001)
            with lock:
                finished += 1
            return x

        for consumed, _ in enumerate(_eigen_map(work, items()), start=1):
            assert pulled - consumed <= EIGEN_WORKERS
        assert consumed == pulled == 10
        assert max(outstanding) == EIGEN_WORKERS

    def test_exception_propagates(self):
        def fail_on_three(x):
            if x == 3:
                raise ValueError("item 3")
            return x

        results = _eigen_map(fail_on_three, range(6))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="item 3"):
            next(results)

    def test_min_eigenvalue_validates_every_state(self, rng):
        layout = standard_layout(1, 1)
        good = DensityMatrix(layout, random_density(rng, layout.dim))
        bad = DensityMatrix(layout, good.data + np.triu(np.full((8, 8), 1e-3), 1))
        # the Cholesky certificate -2c, c = k (n + 2) u sum |rho_ii|, of a healthy state
        diagonal = float(np.sum(np.abs(good.data.diagonal())))
        certificate = -2.0 * hilbert.CHOLESKY_SAFETY * (8 + 2) * hilbert.UNIT_ROUNDOFF * diagonal
        assert _min_eigenvalue([good, good]) == certificate
        assert MIN_EIGENVALUE < certificate <= 0.0
        with pytest.raises(NonPhysicalState, match="Hermiticity"):
            _min_eigenvalue([good, good, bad, good])


def test_stage1_distances_match_a_plain_loop(monkeypatch):
    # cutoffs 8 instead of the margin rule, so that the grid stays small
    monkeypatch.setattr(validation, "_with_margin", lambda sc, margin=0: sc.variant(n1=8, n2=8))
    times = np.array([0.0, 120.0, 250.0, 250.0, 400.0])
    for alpha, g in ((0.5, 0.0), (0.5, 0.3), (0.3, 0.05)):
        sc = validation._stage1_scenario(alpha, g, t1=float(times[-1]))
        dense, branch = run_scenario(sc, times), branch_run(sc, times)
        expected = []
        for i, t in enumerate(times):
            expected.append(trace_distance(rho_stage1(float(t), sc), dense.states[i]))
            expected.append(trace_distance(dense.states[i], branch.dense_state(i)))
        got = list(_eigen_map(half_trace_norm, validation._stage1_differences(sc, times)))
        assert got == expected  # bit for bit
        differences = validation._stage1_differences(sc, times)
        bounds = [certified_half_trace_norm(delta, STATE_TOL) for delta in differences]
        assert all(bound >= exact for bound, exact in zip(bounds, expected))
        ad, bd = validation.stage1_equivalence((alpha,), (g,), times)
        assert ad.detail.startswith(f"worst trace distance at most {max(bounds[0::2]):.3e}")
        assert bd.detail.startswith(f"worst trace distance at most {max(bounds[1::2]):.3e}")


@pytest.mark.parametrize("defect", ["error", "nan"])
def test_stage1_check_fails_on_a_seeded_defect(monkeypatch, defect):
    # a Hermitian error of trace distance 1e-6 in the closed form, which the
    # Frobenius bound cannot certify, so the exact distance is solved for and
    # reported; or a NaN above the diagonal, which the lower-triangle eigen-solve
    # would not read.  Cutoffs 16 keep the grid small and branch-vs-dense passing.
    monkeypatch.setattr(validation, "_with_margin", lambda sc, margin=0: sc.variant(n1=16, n2=16))
    closed_form = analytic.rho_stage1

    def defective(t, sc):
        rho = closed_form(t, sc)
        data = rho.data.copy()
        if defect == "nan":
            data[0, 1] = math.nan
        else:
            data[0, 0] += 1e-6
            data[1, 1] -= 1e-6
        return DensityMatrix(rho.layout, data)

    monkeypatch.setattr(analytic, "rho_stage1", defective)
    times = np.array([120.0, 400.0])
    ad, bd = validation.stage1_equivalence((0.5,), (0.05,), times)
    assert not ad.passed and bd.passed
    if defect == "nan":
        assert ad.detail.startswith("worst trace distance at most nan")
        return
    sc = validation._stage1_scenario(0.5, 0.05, t1=400.0)
    exact = max(trace_distance(defective(t, sc), run_scenario(sc, [t]).states[0]) for t in times)
    assert exact == pytest.approx(1e-6, rel=1e-6)
    assert ad.detail == f"worst trace distance at most {exact:.3e} (tol 1.0e-08)"


def test_semigroup_gap_matches_a_plain_loop():
    sc = Scenario().variant(g=0.5, q=0.3, alpha=0.5, beta=0.5, n1=8, n2=8)
    rho = initial_density(sc)
    expected = max(
        trace_distance(
            stage_step(rho, stage, 9.0, sc),
            stage_step(stage_step(rho, stage, 4.0, sc), stage, 5.0, sc),
        )
        for stage in SEMIGROUP_STAGES
    )
    assert validation._semigroup_gap(sc) == expected


def test_quick_checks_do_not_depend_on_the_worker_count(monkeypatch):
    # a change to the concurrent path that moves a value or the order of the
    # results shows here; the exact values are left to numpy and OpenBLAS
    default = validation.quick_checks()
    monkeypatch.setattr(validation, "EIGEN_WORKERS", 1)
    assert validation.quick_checks() == default


def test_branch_certification_matches_listed_trajectories(monkeypatch):
    # one amplitude, two loss values and cutoffs 8, so that the grid stays small
    monkeypatch.setattr(validation, "CERT_AMPLITUDES", (0.5,))
    monkeypatch.setattr(validation, "CERT_GRID", (0.0, 0.5))
    monkeypatch.setattr(validation, "_with_margin", lambda sc, margin=0: sc.variant(n1=8, n2=8))
    worst, failures = 0.0, []
    for g in validation.CERT_GRID:
        for q in validation.CERT_GRID:
            sc = Scenario().variant(alpha=0.5, beta=0.5, g=g, q=q, n1=8, n2=8)
            times = np.linspace(0.0, sc.total_time(), validation.CERT_TIMES)
            dense, branch = run_scenario(sc, times), branch_run(sc, times)
            failures += [
                f"alpha=0.5 beta=0.5 g={g} q={q} t={t:.1f}"
                for i, t in enumerate(times)
                if not trace_distance_below(dense.states[i], branch.dense_state(i), STATE_TOL)
            ]
            fields = validation.CONCURRENCES + ("purity",)
            worst = max(worst, validation._record_gap(dense.records(), branch.records(), fields))
    expected = f"worst record gap {worst:.1e}"
    expected += f"; first failure {failures[0]}" if failures else ""
    runs, rest = validation.branch_certification().detail.split(", ", 1)
    assert runs.startswith("4 runs in ")
    assert rest == expected


def nan_on_call(fn, call):
    """fn, except that its ``call``-th call (from 1, counted across threads) gives NaN."""
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        return math.nan if next(calls) == call else fn(*args, **kwargs)

    return patched


class TestNanFailsTheCheck:
    """Each reduction over a check's values keeps a NaN in a non-first position
    (Python's max and min would drop it: max([0.0, nan]) is 0.0)."""

    def test_min_eigenvalue(self, monkeypatch):
        certify = nan_on_call(validation.certified_min_eigenvalue, 5)
        monkeypatch.setattr(validation, "certified_min_eigenvalue", certify)
        result = validation.snapshot_invariants()
        assert not result.passed
        assert result.detail.startswith("minimum eigenvalue at least nan")

    def test_semigroup_gap(self, monkeypatch):
        distance = nan_on_call(validation._trace_distance_of, 3)
        monkeypatch.setattr(validation, "_trace_distance_of", distance)
        result = validation.semigroup_property()
        assert not result.passed
        assert result.detail == "worst trace distance nan"

    def test_record_gap(self, monkeypatch):
        # the lab-frame run's third record carries a NaN concurrence
        def fake_run(sc, times):
            records = [SimpleNamespace(c_af1=0.1, c_af2=0.2, c_f1f2=0.0) for _ in times]
            if sc.frame == "lab":
                records[2].c_af2 = math.nan
            return SimpleNamespace(records=lambda: records)

        monkeypatch.setattr(validation, "run_scenario", fake_run)
        result = validation.frame_invariance()
        assert not result.passed
        assert result.detail == "worst concurrence shift nan"

    def test_branch_certification_worst_record(self, monkeypatch):
        monkeypatch.setattr(validation, "CERT_AMPLITUDES", (0.5,))
        monkeypatch.setattr(validation, "CERT_GRID", (0.0, 0.5))
        # cutoffs 12, so that every state comparison passes
        monkeypatch.setattr(
            validation, "_with_margin", lambda sc, margin=0: sc.variant(n1=12, n2=12)
        )
        monkeypatch.setattr(validation, "_record_gap", nan_on_call(validation._record_gap, 2))
        result = validation.branch_certification()
        assert not result.passed
        assert result.detail.endswith(", worst record gap nan")

    def test_oracle_certification(self, monkeypatch):
        # three checkpoints stand in for the states; the second pair's distance is NaN
        dense = SimpleNamespace(snapshots=lambda: iter([1, 2, 3]))
        monkeypatch.setattr(validation, "run_scenario", lambda sc, times: dense)
        monkeypatch.setattr(
            validation.lindblad, "run_oracle", lambda sc, times: SimpleNamespace(states=[1, 2, 3])
        )
        monkeypatch.setattr(
            validation, "_trace_distance_of", lambda pair: math.nan if pair[0] == 2 else 0.0
        )
        result = validation.oracle_certification()
        assert not result.passed
        assert result.detail.startswith("worst trace distance nan")

    def test_ckw_residual(self, monkeypatch):
        residuals = iter([0.0, math.nan, 0.0])
        monkeypatch.setattr(validation, "monogamy_residual", lambda st: next(residuals))
        ckw = validation._ckw_residual(["a", "b", "c"])
        assert math.isnan(ckw)
        assert not ckw >= MIN_CKW_RESIDUAL  # the CKW check's verdict


def plant_negative_eigenvalue(st, lowest):
    """st with ``lowest`` added to the eigenvalue of its lowest eigenvector and taken
    from that of its top one, so that the trace is unchanged."""
    _, vectors = np.linalg.eigh(st.data)
    low, top = vectors[:, 0], vectors[:, -1]
    data = st.data + lowest * (np.outer(low, low.conj()) - np.outer(top, top.conj()))
    return DensityMatrix(st.layout, data)


class TestSnapshotPositivity:
    def test_a_planted_negative_eigenvalue_fails_with_its_exact_value(self, monkeypatch):
        planted = []
        real_run = validation.run_scenario

        def run_with_a_defect(sc, times):
            def snapshots():
                for i, st in enumerate(real_run(sc, times).snapshots()):
                    if i == 6:
                        st = plant_negative_eigenvalue(st, -1e-8)
                        planted.append(st)
                    yield st

            return SimpleNamespace(snapshots=snapshots)

        monkeypatch.setattr(validation, "run_scenario", run_with_a_defect)
        result = validation.snapshot_invariants()
        (st,) = planted
        exact = float(np.linalg.eigvalsh(st.data)[0])
        assert exact == pytest.approx(-1e-8, rel=1e-6)
        assert not result.passed
        assert result.detail == f"minimum eigenvalue at least {exact:.3e} (tol -1.0e-09)"

    def test_healthy_snapshots_need_no_eigen_solve(self, monkeypatch):
        solves = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: solves.append(x) or eigvalsh(x))
        result = validation.snapshot_invariants()
        assert result.passed and isinstance(result.passed, bool)
        assert result.detail.startswith("minimum eigenvalue at least -")
        assert solves == []
