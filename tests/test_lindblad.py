import math

import numpy as np
import pytest

from cavsim import (
    Scenario,
    StageKind,
    StepUnderflow,
    lindblad,
    mean_photon_number,
    rho_stage1,
    run_oracle,
    run_scenario,
    trace_distance,
)
from cavsim.evolution import STAGE_ORDER, initial_density
from cavsim.hilbert import DensityMatrix, standard_layout
from cavsim.validation import _min_eigenvalue

from conftest import margin_scenario, random_density, stage1_scenario


def coherent_field1_state(z: complex, n1: int, n2: int, gamma: float) -> tuple[Scenario, DensityMatrix]:
    sc = Scenario().variant(
        alpha=z, beta=0.0, n1=n1, n2=n2, gamma_1=gamma, q=0.0,
        omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None, ramsey_angle=0.0,
        phi=0.0,
    )
    return sc, initial_density(sc)


def liouvillian_apply(rho: DensityMatrix, stage: StageKind, sc: Scenario) -> np.ndarray:
    """d rho/dt of the stage generator the oracle integrates (rotating frame)."""
    return lindblad._StageGenerator(sc, stage, rho.layout.dims).apply(rho.data)


def kron_generator(rho: np.ndarray, stage: StageKind, sc: Scenario) -> np.ndarray:
    """-i [H, rho] + sum_i gamma_i (2 a rho a^dag - a^dag a rho - rho a^dag a) from np.kron."""
    d1, d2 = sc.n1 + 1, sc.n2 + 1
    a1 = np.kron(np.eye(2), np.kron(np.diag(np.sqrt(np.arange(1, d1)), 1), np.eye(d2)))
    a2 = np.kron(np.eye(2 * d1), np.diag(np.sqrt(np.arange(1, d2)), 1))
    ident = np.eye(2 * d1 * d2)
    excited = np.kron(np.diag([1.0, 0.0]), np.eye(d1 * d2))
    ground = np.kron(np.diag([0.0, 1.0]), np.eye(d1 * d2))
    sigma_x = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(d1 * d2))
    h = np.zeros_like(ident)
    for omega, a in zip(sc.omega_active(stage), (a1, a2)):
        num = a.conj().T @ a
        h += omega * (excited @ (num + ident) - ground @ num)
    if stage is StageKind.RAMSEY:
        h += sc.ramsey_angle / sc.stage_durations[2] * sigma_x
    out = -1j * (h @ rho - rho @ h)
    for gamma, a in ((sc.gamma_1, a1), (sc.gamma_2, a2)):
        ad = a.conj().T
        out += gamma * (2.0 * a @ rho @ ad - ad @ a @ rho - rho @ ad @ a)
    return out


class TestLiouvillianApply:
    @pytest.mark.parametrize("stage", list(StageKind))
    def test_matches_kron_construction(self, stage):
        # asymmetric cutoffs and large rates, so every term and index shows
        sc = Scenario().variant(
            n1=3, n2=4, omega_1=0.4, omega_2=0.7, Omega_1=None, Omega_2=None,
            g=0.3, q=0.2, ramsey_angle=0.9, stage_durations=(3.0, 1.0, 2.0, 1.0, 3.0),
        )
        layout = standard_layout(sc.n1, sc.n2)
        rho = random_density(np.random.default_rng(7), layout.dim)
        got = liouvillian_apply(DensityMatrix(layout, rho), stage, sc)
        want = kron_generator(rho, stage, sc)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_zero_generator(self):
        sc = Scenario().variant(
            g=0.0, q=0.0, omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None,
            alpha=0.5, beta=0.5, ramsey_angle=0.0,
        )
        rho = initial_density(sc)
        out = liouvillian_apply(rho, StageKind.FREE1, sc)
        assert np.max(np.abs(out)) < 1e-15

    def test_vacuum_stationary(self):
        sc = Scenario().variant(alpha=0.0, beta=0.0, g=0.9, q=0.4, n1=5, n2=5)
        rho = initial_density(sc)
        out = liouvillian_apply(rho, StageKind.FREE1, sc)
        assert np.max(np.abs(out)) < 1e-14

    def test_traceless(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.5, q=0.5, extra=4)
        rho = initial_density(sc)
        for stage in (StageKind.CAVITY1, StageKind.RAMSEY, StageKind.CAVITY2):
            out = liouvillian_apply(rho, stage, sc)
            assert abs(np.trace(out)) < 1e-12

    def test_preserves_hermiticity(self):
        sc = margin_scenario(alpha=1.0, beta=0.5, g=0.3, q=0.2, extra=4)
        rho = initial_density(sc)
        out = liouvillian_apply(rho, StageKind.CAVITY1, sc)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_coherent_amplitude_decay_rate(self):
        # d<a>/dt = -gamma <a> on a coherent state with H = 0
        gamma, z, n = 0.07, 0.9 + 0.4j, 20
        sc, rho = coherent_field1_state(z, n, 1, gamma)
        drho = liouvillian_apply(rho, StageKind.FREE1, sc)
        a_full = np.kron(
            np.eye(2), np.kron(np.diag(np.sqrt(np.arange(1, n + 1)), 1), np.eye(2))
        )
        da_dt = np.trace(a_full @ drho)
        assert da_dt == pytest.approx(-gamma * z, abs=1e-9)


def nan_apply(gen, rho):
    return np.full_like(rho, np.nan)


class TestIntegrate:
    def test_zero_generator_constant(self):
        sc = Scenario().variant(
            g=0.0, q=0.0, omega_1=0.0, omega_2=0.0, Omega_1=None, Omega_2=None,
            alpha=0.5, beta=0.5, n1=10, n2=10, ramsey_angle=0.0,
            stage_durations=(0.0, 10.0, 0.0, 0.0, 0.0),  # free flight only
        )
        rho0 = initial_density(sc)
        traj = run_oracle(sc, [0.0, 5.0, 10.0], initial=rho0)
        for st in traj.states:
            assert trace_distance(st, rho0) < 1e-12

    def test_pure_damping_mean_photon(self):
        # alpha = 1, gamma*tau = 0.5 -> <n> = e^{-1}
        gamma = 0.05
        tau = 0.5 / gamma
        sc, rho0 = coherent_field1_state(1.0, 18, 1, gamma)
        sc = sc.variant(stage_durations=(0.0, tau, 0.0, 0.0, 0.0))  # free flight only
        traj = run_oracle(sc, [tau], initial=rho0)
        assert mean_photon_number(traj.states[0], "field1") == pytest.approx(
            math.exp(-1.0), abs=1e-6
        )

    def test_matches_analytic_stage1(self, oracle_controls):
        sc = stage1_scenario(alpha=1.0, g=0.05, t1=40.0, extra=5)
        rho0 = initial_density(sc)
        oracle_controls(abs_tol=1e-9)
        traj = run_oracle(sc, [20.0, 40.0], initial=rho0)
        for t, st in zip(traj.times, traj.states):
            assert trace_distance(st, rho_stage1(float(t), sc)) < 1e-7

    def test_fourth_order_convergence(self, oracle_controls):
        # fixed-step runs at h and h/2 against the closed form: error ratio >= 8
        # (generous truncation margin keeps the closed-form reference floor
        # far below the integrator error)
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=40.0, extra=10)
        rho0 = initial_density(sc)
        ref = rho_stage1(40.0, sc)

        def end_error(h):
            oracle_controls(initial_step=h, abs_tol=np.inf, max_step=h)
            traj = run_oracle(sc, [40.0], initial=rho0)
            return trace_distance(traj.states[0], ref)

        e1, e2 = end_error(4.0), end_error(2.0)
        assert e1 / e2 >= 8.0

    def test_trace_conserved_before_renormalization(self):
        sc = stage1_scenario(alpha=1.0, g=0.5, t1=50.0, extra=0)
        rho0 = initial_density(sc)
        traj = run_oracle(sc, [50.0], initial=rho0)
        assert abs(traj.states[0].trace() - 1.0) < 1e-8

    def test_positivity_within_relaxed_tolerance(self, oracle_controls):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.5, q=0.5, extra=0)
        oracle_controls(abs_tol=1e-9)
        traj = run_oracle(sc, [30.0, 90.0])
        assert _min_eigenvalue(traj.states) >= -1e-7

    def test_step_underflow(self, oracle_controls):
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=10.0, extra=0)
        rho0 = initial_density(sc)
        oracle_controls(initial_step=0.1, abs_tol=1e-30, max_step=0.1)
        with pytest.raises(StepUnderflow):
            run_oracle(sc, [10.0], initial=rho0)

    def test_nan_generator_underflows(self, monkeypatch):
        # a NaN local error is rejected and shrinks the step; it used to be accepted
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=10.0, extra=0)
        monkeypatch.setattr(lindblad._StageGenerator, "apply", nan_apply)
        with pytest.raises(StepUnderflow, match="step below"):
            run_oracle(sc, [10.0])

    def test_nan_drift_rejected_at_fixed_steps(self, monkeypatch, oracle_controls):
        # abs_tol = inf accepts every step, so the trace-drift guard must catch NaN
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=10.0, extra=0)
        monkeypatch.setattr(lindblad._StageGenerator, "apply", nan_apply)
        oracle_controls(abs_tol=math.inf)
        with pytest.raises(StepUnderflow, match="trace drift"):
            run_oracle(sc, [10.0])

    def test_grid_validation(self):
        sc = Scenario().variant(n1=10, n2=10, alpha=0.4, beta=0.4)
        rho0 = initial_density(sc)
        free = sc.variant(stage_durations=(0.0, 5.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            run_oracle(free, [6.0], initial=rho0)
        with pytest.raises(ValueError):
            run_oracle(free, [], initial=rho0)
        with pytest.raises(ValueError, match="finite"):
            run_oracle(free, [0.0, math.nan], initial=rho0)

    def test_initial_follows_run_scenario(self):
        # None starts from initial_density; anything but a DensityMatrix is a TypeError
        sc = margin_scenario(alpha=0.2, beta=0.2, g=0.1, q=0.1, extra=0)
        rho0 = initial_density(sc)
        a, b = (run_oracle(sc, [20.0], initial=start).states[0] for start in (None, rho0))
        assert np.array_equal(a.data, b.data)
        for runner in (run_oracle, run_scenario):
            with pytest.raises(TypeError):
                runner(sc, [20.0], initial=rho0.data)


def count_integrator_hooks(monkeypatch) -> dict:
    """Wrap ``lindblad._rk4`` and ``lindblad._advance`` at the names bench/spans.py patches.

    The traced benchmark reads accepted steps from the third item of what
    ``_advance`` returns and counts step attempts as ``_rk4`` calls / 3.
    """
    counts = {"rk4": 0, "advance": [], "apply": 0}
    rk4, advance, apply = lindblad._rk4, lindblad._advance, lindblad._StageGenerator.apply

    def counted_apply(gen, rho):
        counts["apply"] += 1
        return apply(gen, rho)

    def counted_rk4(*args, **kwargs):
        counts["rk4"] += 1
        return rk4(*args, **kwargs)

    def counted_advance(*args, **kwargs):
        result = advance(*args, **kwargs)
        counts["advance"].append(result)
        return result

    monkeypatch.setattr(lindblad, "_rk4", counted_rk4)
    monkeypatch.setattr(lindblad, "_advance", counted_advance)
    monkeypatch.setattr(lindblad._StageGenerator, "apply", counted_apply)
    return counts


def accepted_steps(counts: dict) -> int:
    for result in counts["advance"]:
        assert isinstance(result, tuple) and len(result) == 3
        assert isinstance(result[2], int)
    return sum(result[2] for result in counts["advance"])


class TestTaylorStep:
    """A classic RK4 step of a linear, constant generator is its degree-4 Taylor sum."""

    @staticmethod
    def classic_rk4(gen, rho, h):
        k1 = gen.apply(rho)
        k2 = gen.apply(rho + 0.5 * h * k1)
        k3 = gen.apply(rho + 0.5 * h * k2)
        k4 = gen.apply(rho + h * k3)
        return rho + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    @staticmethod
    def lossy_generator(stage):
        sc = Scenario().variant(
            n1=3, n2=4, omega_1=0.4, omega_2=0.7, Omega_1=None, Omega_2=None,
            g=0.3, q=0.2, ramsey_angle=0.9, stage_durations=(3.0, 1.0, 2.0, 1.0, 3.0),
        )
        return lindblad._StageGenerator(sc, stage, standard_layout(sc.n1, sc.n2).dims)

    @pytest.mark.parametrize("stage", [StageKind.CAVITY1, StageKind.FREE1, StageKind.RAMSEY])
    def test_rk4_matches_classic_stages(self, stage):
        gen = self.lossy_generator(stage)
        rho = random_density(np.random.default_rng(11), 2 * 4 * 5)
        h = 0.2
        want = self.classic_rk4(gen, rho, h)
        kept = lindblad._rk4(gen, rho, h, lindblad._powers(gen, rho))
        start = rho.copy()
        fresh = lindblad._rk4(gen, start, h)
        assert fresh is start  # without powers the step is taken in place
        for got in (kept, fresh):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_rejected_attempt_costs_four_applies(self, monkeypatch, oracle_controls):
        counts = count_integrator_hooks(monkeypatch)
        gen = self.lossy_generator(StageKind.CAVITY1)
        rho = random_density(np.random.default_rng(5), 2 * 4 * 5)
        oracle_controls(initial_step=3.0, abs_tol=1e-10, max_step=3.0)
        _, _, steps = lindblad._advance(gen, rho, [3.0])
        attempts = counts["rk4"] // 3
        assert counts["rk4"] == 3 * attempts and attempts > steps > 0
        # 8 applies for the first attempt from a state, 4 for each retry from it
        assert counts["apply"] == 8 * steps + 4 * (attempts - steps)


class TestStepControl:
    def test_benchmark_hooks_count_attempts(self, monkeypatch):
        # a smooth run whose attempts are all accepted: _rk4 calls = 3 x accepted steps
        counts = count_integrator_hooks(monkeypatch)
        sc = margin_scenario(alpha=0.2, beta=0.2, g=0.05, q=0.05, extra=0)
        run_oracle(sc, [0.0, 45.0, 90.0])
        assert len(counts["advance"]) == len(STAGE_ORDER)
        steps = accepted_steps(counts)
        assert steps > 0
        assert counts["rk4"] == 3 * steps

    def test_forced_rejections(self, monkeypatch, oracle_controls):
        counts = count_integrator_hooks(monkeypatch)
        sc = Scenario().variant(alpha=0.5, beta=0.5, g=0.05, q=0.05, n1=8, n2=8)
        times = [30.0, 60.0, 90.0]
        oracle_controls(abs_tol=1e-13, initial_step=2.0)
        oracle = run_oracle(sc, times)
        steps = accepted_steps(counts)
        assert counts["rk4"] % 3 == 0
        attempts = counts["rk4"] // 3
        assert attempts > steps  # at least one attempt was rejected
        # four applies per attempt for the second half step; L rho ... L^4 rho once
        # per accepted step, kept through rejections
        assert counts["apply"] == 4 * attempts + 4 * steps
        dense = run_scenario(sc, times)
        for a, b in zip(oracle.states, dense.states):
            assert trace_distance(a, b) < 1e-6

    def test_zero_duration_stages_build_no_generator(self, monkeypatch, oracle_controls):
        built = []

        class CountedGenerator(lindblad._StageGenerator):
            def __init__(self, scenario, stage, dims):
                built.append(stage)
                super().__init__(scenario, stage, dims)

        monkeypatch.setattr(lindblad, "_StageGenerator", CountedGenerator)
        sc = stage1_scenario(alpha=0.5, g=0.5, t1=8.0, extra=0)
        oracle_controls(abs_tol=1e-9)
        run_oracle(sc, [0.0, 4.0, 8.0])
        assert built == [StageKind.CAVITY1]

    def test_many_samples_one_pass(self, oracle_controls):
        # duplicates, samples 1e-13 apart and ten samples inside cavity 1
        sc = margin_scenario(alpha=0.2, beta=0.2, g=0.3, q=0.2, extra=0)
        edges = [0.0, 5.0, 5.0, 17.0, 17.0 + 1e-13, 45.0, 45.0, 90.0]
        times = np.sort(np.concatenate([edges, np.linspace(1.0, 29.0, 10)]))
        oracle_controls(abs_tol=1e-10)
        oracle = run_oracle(sc, times)
        dense = run_scenario(sc, times)
        for a, b in zip(oracle.states, dense.states):
            assert trace_distance(a, b) < 1e-6
        for i in np.flatnonzero(np.diff(times) < 1e-12):
            assert np.array_equal(oracle.states[i].data, oracle.states[i + 1].data)


class TestOracleVsDense:
    def test_five_stage_certification_spot(self, oracle_controls):
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.05, q=0.05, extra=2)
        times = [45.0, 90.0]
        dense = run_scenario(sc, times)
        oracle_controls(abs_tol=1e-10)
        oracle = run_oracle(sc, times)
        for i in range(len(times)):
            assert trace_distance(dense.states[i], oracle.states[i]) < 1e-6

    def test_instant_ramsey_and_boundary_samples(self, oracle_controls):
        # zero-duration Ramsey entry, and a sample on every stage boundary
        sc = Scenario().variant(
            alpha=0.5, beta=0.5, g=0.3, q=0.2, phi=0.9, n1=8, n2=8,
            stage_durations=(8.0, 3.0, 0.0, 3.0, 8.0),
        )
        times = np.sort(np.concatenate([sc.stage_times(), [2.5, 9.5, 17.0]]))
        oracle_controls(abs_tol=1e-10)
        oracle = run_oracle(sc, times, initial=initial_density(sc))
        dense = run_scenario(sc, times)
        for a, b in zip(oracle.states, dense.states):
            assert trace_distance(a, b) < 1e-6

    def test_oracle_always_rotating(self, oracle_controls):
        oracle_controls(abs_tol=1e-9)
        sc = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1, extra=0, frame="lab")
        rot = margin_scenario(alpha=0.5, beta=0.5, g=0.1, q=0.1, extra=0)
        a = run_oracle(sc, [20.0]).states[0]
        b = run_oracle(rot, [20.0]).states[0]
        assert trace_distance(a, b) < 1e-12
