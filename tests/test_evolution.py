import math
import multiprocessing
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavsim import (
    BranchState,
    ConfigError,
    DensityMatrix,
    NonPhysicalState,
    Scenario,
    StageKind,
    SubsystemLayout,
    UnsupportedInitialState,
    branch_run,
    default_truncation,
    dispersive_validity,
    dissipative_map,
    evolution,
    initial_density,
    lindblad,
    mean_photon_number,
    pairwise_concurrences,
    ramsey_unitary,
    rho_stage1,
    run_oracle,
    run_scenario,
    stage_step,
    standard_layout,
    trace_distance,
)
from cavsim.analytic import coherence_factor
from cavsim.evolution import BranchState as BS
from cavsim.evolution import (
    STAGE_ORDER,
    _branch_rotate,
    _dispersive_phases,
    _field_kernels,
    _rotate_atom,
    branch_compress,
    branch_densify,
    branch_step,
)
from cavsim.hilbert import coherent_vector
from cavsim.validation import CONCURRENCES, FRAME_TOL, MIN_EIGENVALUE, SEMIGROUP_TOL
from cavsim.validation import _frame_shift, _min_eigenvalue, _record_gap, _semigroup_gap

from conftest import margin_scenario, random_density, run_halves_inline, stage1_scenario

RECORD_FIELDS = CONCURRENCES + ("purity",)


def embed_field1(rho_field: np.ndarray, n1: int, n2: int, atom_level: int = 0) -> DensityMatrix:
    """|s><s| (x) rho_field (x) |0><0| on the standard layout."""
    atom = np.zeros((2, 2))
    atom[atom_level, atom_level] = 1.0
    vac = np.zeros((n2 + 1, n2 + 1))
    vac[0, 0] = 1.0
    full = np.kron(atom, np.kron(rho_field, vac))
    return DensityMatrix(standard_layout(n1, n2), full)


def _mix(state):
    from cavsim.evolution import _branch_rotate

    return _branch_rotate(state, math.pi / 4)


def same_branch(a: BranchState, b: BranchState) -> bool:
    return (np.array_equal(a.weights, b.weights)
            and a.labels1 == b.labels1 and a.labels2 == b.labels2)


def amplitude_damping_kraus(n: int, eta: float) -> list[np.ndarray]:
    """Independent zero-temperature damping channel, survival probability eta."""
    ops = []
    for k in range(n + 1):
        mat = np.zeros((n + 1, n + 1))
        for m in range(k, n + 1):
            mat[m - k, m] = math.sqrt(
                math.comb(m, k) * eta ** (m - k) * (1.0 - eta) ** k
            )
        ops.append(mat)
    return ops


class TestStageOperators:
    def test_dispersive_identity_at_zero(self):
        assert np.allclose(np.concatenate(_dispersive_phases(0.1, 0.0, 6)), np.ones(12))

    def test_dispersive_vacuum_phases(self):
        on_e, on_g = _dispersive_phases(1.0, math.pi, 4)
        assert on_e[0] == pytest.approx(-1.0)  # |e,0>
        assert on_g[0] == pytest.approx(1.0)  # |g,0>

    def test_dispersive_phases_have_unit_modulus(self):
        phases = np.concatenate(_dispersive_phases(0.37, 2.1, 7))
        assert np.allclose(np.abs(phases), np.ones(14), atol=1e-12)

    def test_dispersive_rotates_coherent_label(self):
        # |e> (x) |z> -> e^{-i w tau} |e> (x) |z e^{-i w tau}>, checked at N=30
        n = 30
        omega, tau, z = 0.2, 3.0, 1.1 + 0.3j
        vec = np.kron(np.array([1.0, 0.0]), coherent_vector(z, n))
        out = np.concatenate(_dispersive_phases(omega, tau, n + 1)) * vec
        phase = np.exp(-1j * omega * tau)
        expected = phase * np.kron(np.array([1.0, 0.0]), coherent_vector(z * phase, n))
        assert np.allclose(out, expected, atol=1e-12)

    def test_ramsey_identity(self):
        assert np.allclose(ramsey_unitary(0.0), np.eye(2))

    def test_ramsey_quarter_pi(self):
        out = ramsey_unitary(math.pi / 4) @ np.array([1.0, 0.0])
        assert np.allclose(out, np.array([1.0, -1j]) / math.sqrt(2))

    def test_ramsey_half_pi_exchanges_levels(self):
        assert np.allclose(ramsey_unitary(math.pi / 2), -1j * np.array([[0, 1], [1, 0]]))


class TestDissipativeMap:
    def test_vacuum_fixed_point(self):
        sc = Scenario().variant(g=0.7, q=0.3, alpha=0.0, beta=0.0, n1=4, n2=4)
        rho = initial_density(sc)
        out = dissipative_map(rho, StageKind.FREE1, 17.0, sc)
        assert trace_distance(out, rho) < 1e-12

    def test_gamma_zero_is_identity(self):
        sc = margin_scenario(alpha=1.0, g=0.0, q=0.0)
        rho = initial_density(sc)
        out = dissipative_map(rho, StageKind.CAVITY1, 25.0, sc)
        assert np.allclose(out.data, rho.data, atol=1e-14)

    def test_matches_kraus_amplitude_damping(self, rng):
        # independent oracle: explicit damping Kraus operators at N=30
        n = 30
        gamma, tau = 0.02, 6.0
        from conftest import random_density

        rho_f = random_density(rng, n + 1)
        sc = Scenario().variant(alpha=0.0, beta=0.0, n1=n, n2=1, gamma_1=gamma)
        rho = embed_field1(rho_f, n, 1)
        out = dissipative_map(rho, StageKind.FREE1, tau, sc)
        kraus = amplitude_damping_kraus(n, math.exp(-2.0 * gamma * tau))
        expected_f = sum(k @ rho_f @ k.conj().T for k in kraus)
        expected = embed_field1(expected_f, n, 1)
        assert trace_distance(out, expected) < 1e-9

    def test_coherent_state_contracts(self):
        # atomic-diagonal block: |z><z| -> |z e^{-gamma tau}><z e^{-gamma tau}|
        n = 30
        z, gamma, tau = 1.3, 0.05, 8.0
        sc = Scenario().variant(alpha=0.0, beta=0.0, n1=n, n2=1, gamma_1=gamma)
        cz = coherent_vector(z, n)
        rho = embed_field1(np.outer(cz, cz.conj()), n, 1)
        out = dissipative_map(rho, StageKind.FREE1, tau, sc)
        cz2 = coherent_vector(z * math.exp(-gamma * tau), n)
        expected = embed_field1(np.outer(cz2, cz2.conj()), n, 1)
        assert trace_distance(out, expected) < 1e-12

    def test_trace_preserved_with_interaction(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.5, q=0.5)
        rho = initial_density(sc)
        out = dissipative_map(rho, StageKind.CAVITY1, 12.0, sc)
        assert abs(out.trace() - 1.0) < 1e-10


def loop_field_kernels(gamma, omega_k, lam, tau, d):
    """Reference: each offset kernel filled entry by entry from the running sqrt-binomials."""
    f = evolution._f_coefficient(gamma, omega_k * lam, tau)
    damp = np.exp(-gamma * tau * np.arange(d)) if gamma > 0 and tau > 0 else np.ones(d)
    sb = np.zeros((d, d))
    sb[0] = 1.0
    for k in range(1, d):
        ns = np.arange(d - k)
        sb[k, : d - k] = sb[k - 1, : d - k] * np.sqrt((ns + k) / k)
    fpow = np.empty(d, dtype=complex)
    fpow[0] = 1.0
    fpow[1:] = f
    np.cumprod(fpow, out=fpow)
    kernels = []
    for o in range(d):
        length = d - o
        js, cols = np.triu_indices(length)
        ks = cols - js
        kern = np.zeros((length, length), dtype=complex)
        kern[js, cols] = fpow[ks] * sb[ks, js + o] * sb[ks, js]
        kern *= (damp[o:] * damp[:length])[:, None]
        kernels.append(kern)
    return kernels


class TestDenseKernels:
    @pytest.mark.parametrize("d", [1, 2, 12, 27])
    @pytest.mark.parametrize("lam", [0, 2, -2])
    @pytest.mark.parametrize("gamma, tau", [(0.03, 17.0), (6.25e-3, 1000.0), (0.0, 17.0), (0.03, 0.0)])
    def test_field_kernels_match_offset_loop(self, d, lam, gamma, tau):
        got = _field_kernels(gamma, 0.2, lam, tau, d)
        want = loop_field_kernels(gamma, 0.2, lam, tau, d)
        assert len(got) == d
        assert got[0].dtype == (float if lam == 0 else complex)
        for o, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape == (d - o, d - o)
            assert np.all(np.abs(a - b) <= 1e-15 * np.abs(b)), o

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2])
    def test_rotate_atom_is_explicit_conjugation(self, rng, monkeypatch, theta):
        # (15, 17) is above HALVES_MIN_SIZE: its passes also run with the worker thread
        for n1, n2 in ((3, 4), (15, 17)):
            layout = standard_layout(n1, n2)
            rho = DensityMatrix(layout, random_density(rng, layout.dim))
            r = np.kron(ramsey_unitary(theta), np.eye(layout.dim // 2))
            want = r @ rho.data @ r.conj().T
            for min_size in (evolution.HALVES_MIN_SIZE, 0):
                monkeypatch.setattr(evolution, "HALVES_MIN_SIZE", min_size)
                got = _rotate_atom(rho, theta).data
                assert np.max(np.abs(got - want)) < 1e-15, (n1, n2, min_size)
            monkeypatch.undo()


class TestStageStep:
    def test_identity_when_everything_off(self):
        sc = Scenario().variant(
            g=0.0, q=0.0, alpha=0.5, beta=0.5, omega_1=0.0, omega_2=0.0,
            Omega_1=None, Omega_2=None, ramsey_angle=0.0,
        )
        rho = initial_density(sc)
        for stage in StageKind:
            out = stage_step(rho, stage, 10.0, sc)
            assert np.allclose(out.data, rho.data, atol=1e-13)

    def test_lossless_cavity_matches_analytic(self):
        sc = stage1_scenario(alpha=1.0, g=0.0)
        t = 97.0
        out = run_scenario(sc, [t]).states[0]
        assert trace_distance(out, rho_stage1(t, sc)) < 1e-10

    def test_lossy_cavity_matches_analytic(self):
        sc = stage1_scenario(alpha=1.0, g=0.05)
        t = 400.0
        out = run_scenario(sc, [t]).states[0]
        assert trace_distance(out, rho_stage1(t, sc)) < 1e-8

    @pytest.mark.parametrize(
        "stage",
        [StageKind.CAVITY1, StageKind.FREE1, StageKind.RAMSEY, StageKind.CAVITY2],
    )
    def test_semigroup_property(self, stage):
        sc = margin_scenario(alpha=1.0, beta=0.8, g=0.5, q=0.3)
        assert _semigroup_gap(sc, (stage,)) < SEMIGROUP_TOL  # 1e-9

    def test_unitary_passes_leave_their_input_unchanged(self, rng):
        # the stage unitary runs in place, on the map's output or on a copy
        sc = Scenario().variant(alpha=1.0, beta=0.8, g=0.5, q=0.3, phi=0.4, frame="lab")
        rho = initial_density(sc)
        rho = DensityMatrix(rho.layout, random_density(rng, rho.dim))
        kept = rho.data.copy()
        stage_step(rho, StageKind.CAVITY1, 7.0, sc)
        stage_step(rho, StageKind.RAMSEY, 7.0, sc)
        _rotate_atom(rho, 0.7)
        evolution._dress(rho, sc, 13.0)
        assert np.array_equal(rho.data, kept)

    def test_zero_duration_kick_leaves_yielded_sample_unchanged(self, monkeypatch):
        # the sample on FREE1's end is the very state that the Ramsey kick rotates
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0,
                             stage_durations=(30.0, 10.0, 0.0, 10.0, 30.0))
        rotate, kicked, kept = evolution._rotate_atom, [], []
        monkeypatch.setattr(evolution, "_rotate_atom", lambda st, theta: kicked.append(st) or rotate(st, theta))
        for st in run_scenario(sc, [20.0, 40.0, 45.0]).snapshots():
            kept.append((st, st.data.copy()))
        assert len(kicked) == 1 and kicked[0] is kept[1][0]
        assert all(np.array_equal(st.data, data) for st, data in kept)

    def test_trace_preserved_every_step(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=1.0, q=1.0)
        rho = initial_density(sc)
        for stage in StageKind:
            rho = stage_step(rho, stage, 10.0, sc)
            assert abs(rho.trace() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "step, start", [(stage_step, initial_density), (branch_step, BS.from_scenario)],
    ids=["dense", "branch"],
)
def test_steppers_reject_negative_tau(step, start):
    sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0)
    with pytest.raises(ValueError, match="non-negative"):
        step(start(sc), StageKind.CAVITY1, -1.0, sc)


@pytest.mark.parametrize("tau", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "step, start",
    [
        (stage_step, initial_density),
        (dissipative_map, initial_density),
        (branch_step, BS.from_scenario),
    ],
    ids=["stage_step", "dissipative_map", "branch"],
)
def test_steppers_reject_nonfinite_tau(step, start, tau):
    # NaN used to return the input state unchanged, inf a NaN matrix or NaN weights
    sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0)
    with pytest.raises(ValueError, match="finite"):
        step(start(sc), StageKind.CAVITY1, tau, sc)


def test_map_trace_guard_rejects_nan():
    sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0)
    rho = initial_density(sc)
    with pytest.raises(NonPhysicalState):
        nan = DensityMatrix(rho.layout, np.full_like(rho.data, np.nan))
        dissipative_map(nan, StageKind.CAVITY1, 5.0, sc)


def dense_last_purity(sc: Scenario) -> float:
    return run_scenario(sc, [0.0, 30.0, sc.total_time()]).records()[-1].purity


class TestThreadedHalves:
    """Each pass of a dense stage step and of the lab dressing runs in two halves,
    the second on a worker thread (``evolution._in_halves``): the map's kernel
    products split by diagonals, every copy and elementwise pass by rows
    (``evolution._split_rows``)."""

    @pytest.mark.parametrize(
        "g, q", [(0.5, 0.3), (0.0, 0.7), (0.0, 0.0)], ids=["lossy", "field2", "lossless"]
    )
    def test_threads_equal_one_thread(self, monkeypatch, g, q):
        sc = Scenario().variant(alpha=1.0, beta=0.8 + 0.3j, g=g, q=q, phi=0.4, n1=15, n2=17)
        rho = initial_density(sc)
        stages = (StageKind.CAVITY1, StageKind.RAMSEY, StageKind.CAVITY2)
        monkeypatch.setattr(evolution, "HALVES_MIN_SIZE", 0)  # every pass on two threads
        threaded = [stage_step(rho, stage, 7.0, sc).data for stage in stages]
        dressed = evolution._dress(rho, sc.variant(frame="lab"), 13.0).data
        monkeypatch.setattr(evolution, "_in_halves", run_halves_inline)
        for stage, want in zip(stages, threaded):
            assert np.array_equal(stage_step(rho, stage, 7.0, sc).data, want), stage
        assert np.array_equal(evolution._dress(rho, sc.variant(frame="lab"), 13.0).data, dressed)

    def test_small_passes_stay_on_the_calling_thread(self):
        # both paths return (fn(*first), fn(*second))
        here, size = threading.get_ident(), evolution.HALVES_MIN_SIZE
        assert evolution._in_halves(size - 1, threading.get_ident, (), ()) == (here, here)
        first, second = evolution._in_halves(size, threading.get_ident, (), ())
        assert first == here != second

    @pytest.mark.parametrize("d1, d2", [(1, 1), (2, 3), (1, 12), (27, 2), (12, 27)])
    def test_real_kernels_match_complex(self, rng, d1, d2):
        src = rng.normal(size=(d1, d1, d2 * d2)) + 1j * rng.normal(size=(d1, d1, d2 * d2))
        kernels = _field_kernels(0.03, 0.2, 0, 17.0, d1)
        assert kernels[0].dtype == float
        got, want = np.empty_like(src), np.empty_like(src)
        evolution._apply_field_kernels(src, kernels, got)
        evolution._apply_field_kernels(src, [k.astype(complex) for k in kernels], want)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_worker_half_is_waited_for_when_caller_half_raises(self):
        done = []

        def half(fail):
            if fail:
                raise RuntimeError("caller half")
            time.sleep(0.2)
            done.append(True)

        with pytest.raises(RuntimeError, match="caller half"):
            evolution._in_halves(evolution.HALVES_MIN_SIZE, half, (True,), (False,))
        assert done == [True]

    def test_dense_run_in_forked_worker_after_a_map(self, monkeypatch):
        # sweep --jobs forks a ProcessPoolExecutor; the parent's worker thread has run
        monkeypatch.setattr(evolution, "HALVES_MIN_SIZE", 0)
        sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.5, q=0.5)
        want = dense_last_purity(sc)
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
        try:
            future = pool.submit(dense_last_purity, sc)
            try:
                got = future.result(timeout=120)
            except FuturesTimeout:
                for proc in pool._processes.values():  # a hung child must not outlive the test
                    proc.terminate()
                raise
        finally:
            pool.shutdown()
        assert got == want


class TestRunScenario:
    @pytest.mark.parametrize(
        "alpha, beta, phi", [(0.5, 1.0, 0.0), (0.8 - 0.3j, 0.4 + 0.6j, 1.3)], ids=["real", "complex"]
    )
    def test_initial_density_is_pure_unit_trace(self, alpha, beta, phi):
        rho = initial_density(Scenario().variant(alpha=alpha, beta=beta, phi=phi))
        assert abs(rho.trace() - 1.0) < 1e-12
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_zero_durations_returns_initial(self):
        sc = Scenario().variant(stage_durations=(0.0,) * 5, ramsey_angle=0.0)
        traj = run_scenario(sc, [0.0])
        assert trace_distance(traj.states[0], initial_density(sc)) < 1e-14

    def test_lossless_run_stays_pure(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.0, q=0.0)
        traj = run_scenario(sc, [sc.total_time()])
        assert traj.states[0].purity() == pytest.approx(1.0, abs=1e-8)

    def test_mean_photon_decay_decoupled(self):
        # fields decoupled: <n>(t) = <n>(0) e^{-2 gamma t}
        sc = margin_scenario(alpha=1.5, beta=0.5, g=0.8, q=0.4, extra=8).variant(
            omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None, ramsey_angle=0.0
        )
        rho0 = initial_density(sc)
        n0 = mean_photon_number(rho0, "field1")
        t = 42.0
        traj = run_scenario(sc, [t])
        n_t = mean_photon_number(traj.states[0], "field1")
        assert abs(n_t - n0 * math.exp(-2.0 * sc.gamma_1 * t)) < 1e-8 * n0

    def test_sample_grid_validation(self):
        sc = Scenario()
        with pytest.raises(ValueError):
            run_scenario(sc, [10.0, 5.0])
        with pytest.raises(ValueError):
            run_scenario(sc, [sc.total_time() + 1.0])
        # NaN compares false with every bound, so it must be rejected explicitly
        with pytest.raises(ValueError, match="finite"):
            run_scenario(sc, [0.0, math.nan, 50.0])

    def test_instantaneous_ramsey_at_zero_duration(self):
        full = Scenario().variant(alpha=0.5, beta=0.5, stage_durations=(30.0, 10.0, 10.0, 10.0, 30.0))
        instant = full.variant(stage_durations=(30.0, 10.0, 0.0, 10.0, 30.0))
        t_end = instant.total_time()
        out = run_scenario(instant, [t_end]).states[0]
        # the pulse must have acted: the run differs from a ramsey_angle=0 run
        out_no_pulse = run_scenario(
            instant.variant(ramsey_angle=0.0), [t_end]
        ).states[0]
        assert trace_distance(out, out_no_pulse) > 1e-3

    def test_boundary_sample_belongs_to_earliest_stage(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.2, q=0.1)
        t1 = sc.stage_durations[0]
        a = run_scenario(sc, [t1]).states[0]
        b = stage_step(initial_density(sc), StageKind.CAVITY1, t1, sc)
        assert trace_distance(a, b) < 1e-12


class TestBranchBackend:
    def test_matches_dense_over_five_stages(self):
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.05, q=0.5)
        times = np.linspace(0.0, sc.total_time(), 7)
        dense = run_scenario(sc, times)
        branch = branch_run(sc, times)
        for i in range(times.size):
            assert trace_distance(dense.states[i], branch.dense_state(i)) < 1e-8

    def test_coherence_weight_reproduces_x_over_two(self):
        sc = stage1_scenario(alpha=1.0, g=0.3)
        t = 180.0
        weights = branch_run(sc, [t]).states[0].weights
        # before the Ramsey zone the |e><g| dyad weighs only the path pair (e, g)
        assert np.count_nonzero(weights[0, :, 1, :]) == 1
        assert weights[0, 0, 1, 1] == pytest.approx(0.5 * coherence_factor(t, sc), abs=1e-12)

    def test_lossless_weights_have_constant_modulus(self):
        # gamma = 0: stage evolution only rotates labels and phases weights
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.0, q=0.0)
        state = BS.from_scenario(sc)
        before = np.abs(state.weights)
        for stage in STAGE_ORDER:
            if stage is StageKind.RAMSEY:
                state = _mix(state)
                before = np.abs(state.weights)
                continue
            state = branch_step(state, stage, 21.0, sc)
            assert np.abs(state.weights) == pytest.approx(before, abs=1e-12)

    def test_rejects_malformed_state(self):
        sc = Scenario()
        good = BS.from_scenario(sc)
        with pytest.raises(ValueError, match="shape"):
            BranchState(good.weights[0], good.labels1, good.labels2)
        with pytest.raises(ValueError, match="pair"):
            BranchState(good.weights, (0.5, 0.5, 0.5), good.labels2)
        with pytest.raises(ValueError, match="pair"):
            branch_run(sc, [1.0], initial=BranchState(good.weights, good.labels1, 0.5))
        # NaN labels used to fail only in records(), in the eigen-solve of the label isometries
        for weights, labels1, labels2 in (
            (good.weights * math.nan, good.labels1, good.labels2),
            (good.weights, (0.5, math.nan), good.labels2),
            (good.weights, good.labels1, (0.5, complex(0.0, math.inf))),
        ):
            with pytest.raises(ValueError, match="finite"):
                BranchState(weights, labels1, labels2)

    def test_sample_grid_validation(self):
        sc = Scenario()
        with pytest.raises(ValueError, match="finite"):
            branch_run(sc, [0.0, math.nan])
        with pytest.raises(ValueError, match="finite"):
            branch_run(sc, [0.0, math.inf])

    def test_rejects_foreign_initial_state(self):
        sc = Scenario()
        with pytest.raises(UnsupportedInitialState):
            branch_run(sc, [0.0], initial=initial_density(sc))

    def test_densify_is_physical(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5)
        traj = branch_run(sc, [70.0])
        assert _min_eigenvalue([traj.dense_state(0)]) >= MIN_EIGENVALUE

    def test_custom_branch_initial(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1)
        traj = branch_run(sc, [20.0], initial=BS.from_scenario(sc))
        assert isinstance(traj.states[0], BranchState)

    def test_nonphysical_initial_rejected(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1)
        good = BS.from_scenario(sc)
        off_diagonal, diagonal = good.weights.copy(), good.weights.copy()
        off_diagonal[0, 0, 1, 1] += 0.1  # no longer the conjugate of [1, 1, 0, 0]
        diagonal[1, 1, 1, 1] += 1e-9j
        # twice the weights used to run, to purity 3.99 at 90 us
        for weights, part in (
            (2.0 * good.weights, "trace"),
            (off_diagonal, "Hermiticity"),
            (diagonal, "Hermiticity"),
        ):
            with pytest.raises(NonPhysicalState, match=part):
                branch_run(sc, [90.0], initial=BranchState(weights, good.labels1, good.labels2))
        # construction rejects NaN, but the weights array stays writable
        for index in ((0, 0, 0, 0), (0, 0, 1, 1)):
            bs = BS.from_scenario(sc)
            bs.weights[index] = math.nan
            with pytest.raises(NonPhysicalState):
                branch_run(sc, [90.0], initial=bs)

    def test_state_from_a_run_accepted_as_initial(self):
        # after the Ramsey zone: distinct field-1 labels and weights off p = a
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.3, q=0.6, phi=0.7)
        ramsey_end = sum(sc.stage_durations[:3])
        mid = branch_run(sc, [ramsey_end + 5.0]).states[0]
        assert mid.labels1[0] != mid.labels1[1] and np.any(mid.weights[0, 1])
        assert mid.validate() is mid
        rec = branch_run(sc, [0.0, 20.0], initial=mid).records()[-1]
        assert 0.0 < rec.purity <= 1.0 + 1e-12


class TestBranchRecords:
    """Branch records come from the label-basis compression, never from Fock space."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=1.0, beta=0.5, phi=1.1),
            dict(alpha=0.5, beta=1.0, frame="lab"),
            dict(alpha=1.0, beta=1.0, phi=4.0, frame="lab"),
        ],
    )
    def test_matches_dense_records(self, rng, kw):
        g, q = rng.uniform(0.0, 1.0, 2)
        sc = margin_scenario(g=float(g), q=float(q), **kw)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, sc.total_time(), 6))])
        branch = branch_run(sc, times).records()
        dense = run_scenario(sc, times).records()
        assert _record_gap(branch, dense, RECORD_FIELDS) < 1e-9

    def test_start_has_one_label_per_field(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.2, q=0.2, phi=0.7)
        traj = branch_run(sc, [0.0])
        small = branch_compress(traj.states[0])
        assert small.layout.dims == (2, 2, 2)
        rec = traj.records()[0]
        assert rec.c_af1 == pytest.approx(0.0, abs=1e-12)
        assert rec.purity == pytest.approx(1.0, abs=1e-12)

    def test_entangled_initial_matches_dense(self, rng):
        # sum of sigma[a, b] |a><b| (x) |x_a><x_b| (x) |y><y| with a full-rank sigma:
        # distinct field-1 labels from t = 0, away from rank-deficient pair states
        sc = margin_scenario(alpha=1.0, beta=1.0, g=0.3, q=0.6)
        sigma, weights = random_density(rng, 2), np.zeros((2, 2, 2, 2), dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                weights[a, a, b, b] = sigma[a, b]
        bs = BranchState(weights, (0.9 + 0.2j, -0.5 + 0.7j), (0.4 - 0.3j,) * 2)
        times = np.linspace(0.0, sc.total_time(), 7)
        branch = branch_run(sc, times, initial=bs).records()
        dense = run_scenario(sc, times, initial=branch_densify(bs, sc)).records()
        assert _record_gap(branch, dense, RECORD_FIELDS) < 1e-9

    def test_compressed_state_is_physical(self):
        traj = branch_run(margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5), [70.0])
        assert _min_eigenvalue([branch_compress(traj.states[0])]) >= MIN_EIGENVALUE

    def test_equal_labels_leave_second_basis_vector_empty(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.3, q=0.6, phi=0.4)
        # t = 0, inside cavity 1, inside the second free flight, inside cavity 2
        traj = branch_run(sc, [0.0, 20.0, 60.0, 80.0])
        unentered = [(0, 1), (1,), (1,), ()]  # fields whose labels are still equal
        for st, fields in zip(traj.states, unentered):
            labels = (st.labels1, st.labels2)
            assert [f for f in (0, 1) if labels[f][0] == labels[f][1]] == list(fields)
            data = branch_compress(st).data.reshape(2, 2, 2, 2, 2, 2)
            for f in fields:
                second = np.take(data, 1, axis=1 + f)
                assert np.all(second == 0) and np.all(np.take(data, 1, axis=4 + f) == 0)

    def test_stacked_records_equal_per_snapshot_extraction(self):
        # t = 0 (equal labels on both fields), cavity 1 (field 2 still equal), an
        # instantaneous Ramsey pulse and cavity 2 (no equal labels) share one stack
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.3, q=0.6, phi=0.4, frame="lab")
        sc = sc.variant(stage_durations=(30.0, 10.0, 0.0, 10.0, 30.0))
        times = np.concatenate([[0.0, 0.0], np.linspace(0.0, sc.total_time(), 17)])
        times.sort()
        traj = branch_run(sc, times)
        equal = {(st.labels1[0] == st.labels1[1], st.labels2[0] == st.labels2[1])
                 for st in traj.states}
        assert equal == {(True, True), (False, True), (False, False)}
        for rec, st, t in zip(traj.records(), traj.states, times):
            small = branch_compress(st)
            pc = pairwise_concurrences(small)
            expected = (float(t), pc.c_af1, pc.c_af2, pc.c_f1f2, pc.discarded_weight,
                        small.purity(), ";".join(pc.flags))
            got = (rec.t_us, rec.c_af1, rec.c_af2, rec.c_f1f2, rec.discarded_weight,
                   rec.purity, rec.flags)
            assert got == expected

    def test_records_ignore_fock_cutoffs(self):
        # densifying at n = 1 raises TruncationTooSmall; the label basis needs no cutoff
        sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.05, q=0.05)
        times = np.linspace(0.0, sc.total_time(), 13)
        tiny = branch_run(sc.variant(n1=1, n2=1), times).records()
        default = branch_run(sc, times).records()
        assert _record_gap(tiny, default, RECORD_FIELDS + ("discarded_weight",)) < 1e-12


class TestTraversal:
    """The shared stage traversal gives the same records on both closed-form backends."""

    @settings(max_examples=30, deadline=None)
    @given(
        durations=st.tuples(*[st.just(0.0) | st.floats(0.5, 40.0)] * 5),
        g=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        frame=st.sampled_from(["rotating", "lab"]),
    )
    def test_branch_matches_dense_on_boundary_grids(self, durations, g, q, phi, frame):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=g, q=q, extra=0, phi=phi, frame=frame)
        sc = sc.variant(stage_durations=durations)
        bounds = sc.stage_times()
        # t = 0, every stage boundary (repeated at zero-duration stages), the end, midpoints
        times = np.sort(np.concatenate([bounds, 0.5 * (bounds[1:] + bounds[:-1])]))
        branch = branch_run(sc, times).records()
        dense = run_scenario(sc, times).records()
        assert _record_gap(branch, dense, RECORD_FIELDS) < 1e-9


def stepwise_snapshots(sc: Scenario, times, start, step, rotate) -> list:
    """Reference snapshots: each sample stepped on its own from its stage-start state."""
    bounds, starts, state = sc.stage_times(), [], start
    for stage, duration in zip(STAGE_ORDER, sc.stage_durations):
        starts.append(state)
        if duration > 0:
            state = step(state, stage, duration, sc)
        elif stage is StageKind.RAMSEY:
            state = rotate(state, sc.ramsey_angle)
    snapshots = []
    for t in times:
        k = min(int(np.searchsorted(bounds[1:], t, side="left")), len(STAGE_ORDER) - 1)
        tau = float(t - bounds[k])
        snapshots.append(step(starts[k], STAGE_ORDER[k], tau, sc) if tau > 0 else starts[k])
    return snapshots


def record_steps(monkeypatch, attr: str) -> list:
    """Replace ``evolution.<attr>`` by a wrapper that logs (stage, tau) of every call."""
    step, calls = getattr(evolution, attr), []

    def logged(state, stage, tau, scenario):
        calls.append((stage, tau))
        return step(state, stage, tau, scenario)

    monkeypatch.setattr(evolution, attr, logged)
    return calls


class TestOneStepPerTime:
    """The closed-form driver steps each distinct elapsed time of a stage once."""

    @pytest.mark.parametrize(
        "runner, attr, start, rotate, same",
        [
            (run_scenario, "stage_step", initial_density, _rotate_atom,
             lambda a, b: np.array_equal(a.data, b.data)),
            (branch_run, "branch_step", BS.from_scenario, _branch_rotate, same_branch),
        ],
        ids=["dense", "branch"],
    )
    @pytest.mark.parametrize("ramsey", [10.0, 0.0])
    def test_stage_ends_share_their_step(self, monkeypatch, runner, attr, start, rotate, same, ramsey):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0, phi=0.8)
        sc = sc.variant(stage_durations=(30.0, 10.0, ramsey, 10.0, 30.0))
        times = sc.stage_times()
        step = getattr(evolution, attr)
        calls = record_steps(monkeypatch, attr)
        states = runner(sc, times).states  # snapshots are made when read
        monkeypatch.undo()
        # every sample sits on a stage end, so each stage steps only its duration
        assert calls == [(s, d) for s, d in zip(STAGE_ORDER, sc.stage_durations) if d > 0]
        expected = stepwise_snapshots(sc, times, start(sc), step, rotate)
        assert all(same(a, b) for a, b in zip(states, expected))

    def test_samples_inside_stages_one_step_each(self, monkeypatch):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0)
        # duplicates, a sample on an inner stage end, one at -1e-12
        times = [-1e-12, 5.0, 5.0, 30.0, 35.0, 40.0, 40.0, 72.0]
        step = evolution.stage_step
        calls = record_steps(monkeypatch, "stage_step")
        states = run_scenario(sc, times).states  # snapshots are made when read
        monkeypatch.undo()
        C, F1, R, F2, C2 = STAGE_ORDER
        # the walk ends at the last sample: cavity 2 is not stepped on to its end
        assert calls == [(C, 5.0), (C, 30.0), (F1, 5.0), (F1, 10.0), (R, 10.0), (F2, 10.0),
                         (C2, 12.0)]
        expected = stepwise_snapshots(sc, times, initial_density(sc), step, _rotate_atom)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(states, expected))


def records_peak_bytes(sc: Scenario, n_samples: int) -> int:
    """tracemalloc peak of ``run_scenario(sc, times).records()`` on an n-sample grid."""
    times = np.linspace(0.0, sc.total_time(), n_samples)
    tracemalloc.start()
    try:
        run_scenario(sc, times).records()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedTrajectory:
    """Closed-form snapshots are made when read; records keep one dense snapshot at a time."""

    def test_records_memory_does_not_grow_with_samples(self):
        sc = Scenario().variant(g=0.5, q=0.5, alpha=1.0, beta=1.0)
        snapshot_bytes = initial_density(sc).data.nbytes
        # a trajectory that kept its snapshots would hold 18 more of them at 24 samples
        assert records_peak_bytes(sc, 24) - records_peak_bytes(sc, 6) <= snapshot_bytes

    def test_records_peak_stays_below_four_snapshots(self):
        # the stage-start state, the one sample being extracted and the map's output
        # and work buffers; the walk used to keep the previous stage's start too
        sc = Scenario().variant(g=0.5, q=0.5, alpha=1.0, beta=1.0)
        assert records_peak_bytes(sc, 13) <= 4 * initial_density(sc).data.nbytes

    def test_dense_state_keeps_one_snapshot(self):
        sc = Scenario().variant(g=0.5, q=0.5, alpha=1.0, beta=1.0)
        snapshot_bytes = initial_density(sc).data.nbytes
        times = np.linspace(0.0, sc.total_time(), 24)
        tracemalloc.start()
        try:
            traj = run_scenario(sc, times)
            traj.dense_state(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # reading the states list would have made and kept all 24 snapshots
        assert peak <= 1.5 * snapshot_bytes
        assert "states" not in vars(traj)

    @pytest.mark.parametrize("runner", [run_scenario, branch_run], ids=["dense", "branch"])
    def test_walked_dense_state_equals_listed(self, runner):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0, phi=0.8)
        times = np.linspace(0.0, sc.total_time(), 5)
        walked, listed = runner(sc, times), runner(sc, times)
        listed.states
        for i in (0, 2, 4, -1):
            assert np.array_equal(walked.dense_state(i).data, listed.dense_state(i).data)
        assert "states" not in vars(walked)
        with pytest.raises(IndexError):
            walked.dense_state(5)

    @pytest.mark.parametrize("runner", [run_scenario, branch_run], ids=["dense", "branch"])
    @pytest.mark.parametrize("frame", ["rotating", "lab"])
    def test_streamed_records_equal_listed_records(self, runner, frame):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0, phi=0.8).variant(
            stage_durations=(30.0, 10.0, 0.0, 10.0, 30.0), frame=frame
        )
        # every stage boundary (twice at the zero-duration Ramsey stage), duplicates, inner samples
        times = np.sort(np.concatenate([sc.stage_times(), [5.0, 5.0, 45.0, 45.0, 70.0]]))
        streamed = runner(sc, times)
        listed = runner(sc, times)
        states = listed.states
        assert streamed.records() == listed.records()
        assert "states" not in vars(streamed)  # records() kept no list behind
        assert all(a is b for a, b in zip(listed.snapshots(), states))

    @pytest.mark.parametrize("runner", [run_scenario, run_oracle], ids=["dense", "oracle"])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 2, 2, 2)])
    def test_initial_of_another_layout_rejected(self, runner, dims):
        # a (2, 3) state used to fail with an IndexError deep inside the stage maps
        layout = SubsystemLayout(dims, tuple(f"s{i}" for i in range(len(dims))))
        rho = DensityMatrix(layout, np.eye(layout.dim) / layout.dim)
        sc = margin_scenario(alpha=0.2, beta=0.2, g=0.1, q=0.1, extra=0)
        with pytest.raises(UnsupportedInitialState, match="layout"):
            runner(sc, [20.0], initial=rho)

    @pytest.mark.parametrize("runner", [run_scenario, run_oracle], ids=["dense", "oracle"])
    @pytest.mark.parametrize("scale, part", [(2.0, "trace"), (1j, "Hermiticity")])
    def test_nonphysical_initial_rejected(self, runner, scale, part):
        # a trace-2 state used to fail as a broken dissipative map or as oracle trace drift
        sc = margin_scenario(alpha=0.2, beta=0.2, g=0.1, q=0.1, extra=0)
        rho = initial_density(sc)
        with pytest.raises(NonPhysicalState, match=part):
            runner(sc, [20.0], initial=DensityMatrix(rho.layout, rho.data * scale))

    def test_grid_and_initial_errors_stay_eager(self):
        sc = margin_scenario(alpha=0.5, beta=0.5, extra=0)
        with pytest.raises(ValueError, match="sorted"):
            run_scenario(sc, [10.0, 5.0])
        with pytest.raises(ValueError, match="outside"):
            branch_run(sc, [sc.total_time() + 1.0])
        with pytest.raises(TypeError):
            run_scenario(sc, [1.0], initial=BS.from_scenario(sc))


class TestWalkEndsAtLastSample:
    """No runner advances or rotates past its last sample (counted at the module
    attributes the runners look up)."""

    SC = margin_scenario(alpha=0.5, beta=0.5, g=0.3, q=0.6, extra=0, phi=0.8).variant(
        stage_durations=(30.0, 10.0, 0.0, 10.0, 30.0)
    )
    TIMES = [0.0, 10.0, 20.0]  # inside cavity 1; the zero-duration Ramsey kick comes later

    @pytest.mark.parametrize(
        "runner, attr, rotate, same",
        [
            (run_scenario, "stage_step", "_rotate_atom",
             lambda a, b: np.array_equal(a.data, b.data)),
            (branch_run, "branch_step", "_branch_rotate", same_branch),
        ],
        ids=["dense", "branch"],
    )
    def test_closed_form_runners(self, monkeypatch, runner, attr, rotate, same):
        full = runner(self.SC, self.TIMES + [self.SC.total_time()])
        calls = record_steps(monkeypatch, attr)
        rotations = []
        rotate_fn = getattr(evolution, rotate)
        monkeypatch.setattr(
            evolution, rotate, lambda st, theta: rotations.append(theta) or rotate_fn(st, theta)
        )
        states = runner(self.SC, self.TIMES).states  # snapshots are made when read
        monkeypatch.undo()
        assert calls == [(StageKind.CAVITY1, 10.0), (StageKind.CAVITY1, 20.0)]
        assert rotations == []
        assert all(same(a, b) for a, b in zip(states, full.states))

    def test_oracle(self, monkeypatch, oracle_controls):
        oracle_controls(abs_tol=1e-9)
        full = run_oracle(self.SC, self.TIMES + [self.SC.total_time()])
        targets, rotations = [], []
        advance, pulse = lindblad._advance, lindblad._pulse

        def counted_advance(gen, rho, stage_targets):
            targets.append(list(stage_targets))
            return advance(gen, rho, stage_targets)

        monkeypatch.setattr(lindblad, "_advance", counted_advance)
        # the oracle's own pulse, of the zero-duration kick and of in-zone states alike
        monkeypatch.setattr(
            lindblad, "_pulse", lambda data, theta: rotations.append(theta) or pulse(data, theta)
        )
        traj = run_oracle(self.SC, self.TIMES)
        monkeypatch.undo()
        assert targets == [self.TIMES]
        assert rotations == []
        assert all(np.array_equal(a.data, b.data) for a, b in zip(traj.states, full.states))


def frame_check(sc: Scenario, times) -> tuple[int, float]:
    """(snapshots failing ``validate()``, record gap) of sc's rotating- and lab-frame runs.

    Only scalars leave this function, so the traceback of a failing hypothesis
    example keeps no trajectory alive while the example shrinks.
    """
    rot = run_scenario(sc, times)
    lab = run_scenario(sc.variant(frame="lab"), times)
    invalid = 0
    for state in rot.states + lab.states:
        try:
            state.validate()
        except NonPhysicalState:
            invalid += 1
    return invalid, _record_gap(rot.records(), lab.records(), RECORD_FIELDS)


class TestRandomScenarios:
    """Invariants on random scenarios, not only on the hand-picked grid."""

    @settings(max_examples=50, deadline=None)
    @given(
        durations=st.tuples(*[st.just(0.0) | st.floats(0.5, 40.0)] * 5),
        g=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        alpha=st.floats(0.0, 1.0),
        beta=st.complex_numbers(max_magnitude=1.0),
    )
    def test_snapshots_physical_and_frame_invariant(self, durations, g, q, phi, alpha, beta):
        sc = Scenario().variant(
            g=g, q=q, phi=phi, alpha=alpha, beta=beta, stage_durations=durations
        )
        invalid, gap = frame_check(sc, sc.stage_times())
        assert invalid == 0
        assert gap < FRAME_TOL


class TestFrames:
    def test_concurrences_frame_invariant(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.05, q=0.5, extra=5)
        assert _frame_shift(sc, np.linspace(0.0, sc.total_time(), 5)) < FRAME_TOL

    def test_lab_branch_matches_lab_dense(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.05, q=0.2, frame="lab")
        # -1e-12 is the earliest sample the grid check accepts; neither backend dresses it
        times = [-1e-12, 25.0, 55.0, 90.0]
        dense = run_scenario(sc, times)
        branch = branch_run(sc, times)
        for i in range(len(times)):
            assert trace_distance(dense.states[i], branch.dense_state(i)) < 1e-8


class TestDispersiveValidity:
    def test_vacuum_ratio_four_no_warning(self, recwarn):
        sc = Scenario().variant(alpha=0.0, beta=0.0)
        report = dispersive_validity(sc)
        assert report.ratios[0] == pytest.approx(4.0)
        assert report.ok
        assert not recwarn.list

    def test_large_field_warns(self):
        sc = Scenario().variant(alpha=math.sqrt(15.0), n1=60)
        with pytest.warns(UserWarning):
            report = dispersive_validity(sc)
        assert report.ratios[0] == pytest.approx(1.0)
        assert not report.ok

    def test_zero_coupling_is_infinite_ratio(self, recwarn):
        sc = Scenario().variant(Omega_1=0.0, Omega_2=0.0, omega_1=0.0, omega_2=0.0)
        report = dispersive_validity(sc)
        assert math.isinf(report.ratios[0])
        assert not recwarn.list


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "change, key",
        [
            ({"alpha": math.nan}, "alpha"),
            ({"beta": complex(math.inf, 0.0)}, "beta"),
            ({"gamma_1": math.nan}, "gamma_1"),
            ({"stage_durations": (30.0, math.nan, 10.0, 10.0, 30.0)}, "stage_durations"),
        ],
        ids=["alpha_nan", "beta_inf", "gamma_1_nan", "duration_nan"],
    )
    @pytest.mark.parametrize("backend", [run_scenario, branch_run, run_oracle])
    def test_nonfinite_value_rejected(self, change, key, backend):
        with pytest.raises(ConfigError) as err:
            backend(Scenario().variant(**change), [0.0])
        assert err.value.key == key

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            Scenario().variant(gamma_1=-1.0).validate()

    def test_inconsistent_dispersive_frequency_rejected(self):
        with pytest.raises(ConfigError):
            Scenario().variant(omega_1=5e-3).validate()

    def test_wrong_duration_count_rejected(self):
        with pytest.raises(ConfigError):
            Scenario().variant(stage_durations=(1.0, 2.0)).validate()

    @pytest.mark.parametrize("key", ["n1", "n2"])
    @pytest.mark.parametrize("n", [0, 2.5, True], ids=["zero", "float", "bool"])
    def test_bad_truncation_rejected(self, key, n):
        with pytest.raises(ConfigError) as err:
            Scenario().variant(**{key: n}).validate()
        assert err.value.key == key

    def test_numpy_integer_truncation_accepted(self):
        assert Scenario().variant(n1=np.int64(12), n2=np.int32(13)).validate().truncations() == (12, 13)

    def test_default_truncation_rule(self):
        assert default_truncation(0.5) == 11
        assert default_truncation(1.0) == 15
        assert default_truncation(2.0) == 26
